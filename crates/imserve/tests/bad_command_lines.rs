//! The binary's error path. A bad command line exits non-zero, says
//! `error:` and prints a usage text naming every subcommand and every flag
//! of the table it is parsed against (`imserve::cli::SUBCOMMANDS`), so the
//! printed usage cannot drift from what the parser accepts. Spawns the built
//! `imserve`; `imexp` has the same test over its own table.

use std::process::Command;

use imserve::cli::SUBCOMMANDS;

/// Run the binary on `args`, check it refused them with the full usage, and
/// return what it printed on stderr.
fn assert_refused(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_imserve"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{args:?} exited 0");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    for sub in SUBCOMMANDS {
        let line: Vec<&str> = (stderr.lines())
            .map(|line| line.split_whitespace().collect::<Vec<_>>())
            .find(|words| words.len() >= 2 && words[0] == "imserve" && words[1] == sub.name)
            .unwrap_or_else(|| panic!("{args:?}: no usage line for {}:\n{stderr}", sub.name));
        for flag in sub.flags {
            assert!(
                line.iter()
                    .any(|word| word.trim_matches(|c| c == '[' || c == ']') == flag.name),
                "{args:?}: usage line for {} misses {}:\n{stderr}",
                sub.name,
                flag.name
            );
        }
    }
    stderr.into_owned()
}

#[test]
fn bad_command_lines_exit_non_zero_with_the_full_usage() {
    assert_refused(&[]);
    assert_refused(&["conquer"]);
    for sub in SUBCOMMANDS {
        assert_refused(&[sub.name, "--frobnicate"]);
    }
    // One front end: the switches that used to pick one are unknown.
    for flag in ["--threaded", "--reactor"] {
        let stderr = assert_refused(&["serve", "--index", "x.imx", flag]);
        let refusal = format!("error: unknown option \"{flag}\" for serve\n");
        assert!(stderr.starts_with(&refusal), "{stderr}");
    }
}
