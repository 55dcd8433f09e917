//! The binary's error path. A bad command line exits non-zero, says
//! `error:` and prints a usage text naming every subcommand and every flag
//! of the table it is parsed against (`imexp::cli::SUBCOMMANDS`), so the
//! printed usage cannot drift from what the parser accepts. Spawns the built
//! `imexp`; `imserve` has the same test over its own table.

use std::process::Command;

use imexp::cli::SUBCOMMANDS;

/// Run the binary on `args` and check it refused them with the full usage.
fn assert_refused(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_imexp"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{args:?} exited 0");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    for sub in SUBCOMMANDS {
        let line: Vec<&str> = (stderr.lines())
            .map(|line| line.split_whitespace().collect::<Vec<_>>())
            .find(|words| words.len() >= 2 && words[0] == "imexp" && words[1] == sub.name)
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
}

#[test]
fn bad_command_lines_exit_non_zero_with_the_full_usage() {
    assert_refused(&[]);
    assert_refused(&["conquer"]);
    for sub in SUBCOMMANDS {
        assert_refused(&[sub.name, "--frobnicate"]);
    }
}

/// `imexp index` was a second way to write what `imserve build` writes; the
/// word is now an unknown experiment and its dataset a stray word.
#[test]
fn index_is_refused_and_writes_nothing() {
    let out = std::env::temp_dir().join(format!("imexp-index-{}.imx", std::process::id()));
    assert_refused(&["index", "karate", "--out", out.to_str().unwrap()]);
    assert!(
        !out.exists(),
        "a refused invocation wrote {}",
        out.display()
    );
}
