//! Spawns the `sygraph-cli` binary at `SYG_SCALE=test` and holds what it
//! prints against `golden/expected.txt`, which `golden/record.sh` wrote
//! from the parent commit's binary on one core.
//!
//! The modelled milliseconds in that file repeat exactly only on one
//! host thread, so this test compares what does not depend on the host
//! schedule: the values and the summary line of the bit-exact
//! algorithms, the superstep count of the level-synchronous ones, and
//! every error path's stderr and exit code. CI diffs the whole file
//! under `taskset -c 0`.

use std::path::Path;
use std::process::{Command, Output};

use serde_json::Value;
use sygraph_algos::{Algo, Determinism};

/// One `$ args` section of `expected.txt`.
struct Expected {
    args: String,
    stdout: String,
    stderr: String,
    exit: i32,
}

fn expectations() -> Vec<Expected> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/expected.txt");
    let text = std::fs::read_to_string(path).expect("golden file");
    let mut sections = Vec::new();
    for section in text.split("$ ").skip(1) {
        let (args, rest) = section.split_once('\n').expect("args line");
        let (stdout, rest) = rest.split_once("--- stderr\n").expect("stderr marker");
        let (stderr, exit) = rest.rsplit_once("--- exit ").expect("exit marker");
        sections.push(Expected {
            args: args.to_string(),
            stdout: stdout.to_string(),
            stderr: stderr.to_string(),
            exit: exit.trim().parse().expect("exit code"),
        });
    }
    sections
}

fn cli(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sygraph-cli"))
        .args(args.split_whitespace())
        .env("SYG_SCALE", "test")
        .output()
        .expect("sygraph-cli runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("UTF-8 output")
}

/// The `--json` values and superstep count.
fn values_and_iterations(stdout: &str) -> (Value, Value) {
    let doc: Value = serde_json::from_str(stdout).expect("JSON output");
    let field = |name: &str| doc.get_field(name).expect("field").clone();
    (field("values"), field("iterations"))
}

/// The text header line, and the summary line's superstep count and
/// what it found (not its simulated milliseconds).
fn header_and_summary(stdout: &str) -> (String, String, String) {
    let mut lines = stdout.lines();
    let header = lines.next().expect("header line");
    let summary = lines.next().expect("summary line");
    let (supersteps, rest) = summary.split_once(" supersteps, ").expect("supersteps");
    let (_, found) = rest.split_once(" simulated ms — ").expect("simulated ms");
    (header.into(), found.into(), supersteps.into())
}

#[test]
fn bit_exact_algorithms_print_the_committed_results() {
    let mut checked = 0;
    for want in expectations().iter().filter(|e| e.exit == 0) {
        let name = want.args.split_whitespace().next().unwrap();
        let Some(algo) = Algo::parse(name) else {
            continue;
        };
        if algo.determinism() != Determinism::BitExact {
            continue;
        }
        // A relaxation (cc, sssp, delta, kcore) may read a neighbour's
        // update of the same superstep, so how many supersteps it takes
        // to reach its fixpoint follows the host schedule; a level
        // stamp cannot.
        let level_synchronous = matches!(algo, Algo::Bfs | Algo::Dobfs);
        let got = cli(&want.args);
        assert_eq!(got.status.code(), Some(0), "{}", want.args);
        assert_eq!(text(&got.stderr), want.stderr, "{}", want.args);
        let stdout = text(&got.stdout);
        if want.args.contains("--json") {
            let (values, iterations) = values_and_iterations(&stdout);
            let (want_values, want_iterations) = values_and_iterations(&want.stdout);
            assert_eq!(values, want_values, "{}", want.args);
            if level_synchronous {
                assert_eq!(iterations, want_iterations, "{}", want.args);
            }
        } else {
            let (header, found, supersteps) = header_and_summary(&stdout);
            let (want_header, want_found, want_supersteps) = header_and_summary(&want.stdout);
            assert_eq!((header, found), (want_header, want_found), "{}", want.args);
            if level_synchronous {
                assert_eq!(supersteps, want_supersteps, "{}", want.args);
            }
        }
        checked += 1;
    }
    assert!(checked >= 30, "only {checked} bit-exact invocations listed");
}

#[test]
fn error_paths_keep_their_text_and_exit_codes() {
    let failures: Vec<Expected> = expectations().into_iter().filter(|e| e.exit != 0).collect();
    for needed in [
        "tarjan gen:kron",
        "bfs gen:kron --frobnicate",
        "sssp gen:kron --sources 1,2",
        "bc gen:kron --devices 2",
        "bfs gen:kron --src 99999999",
    ] {
        assert!(failures.iter().any(|e| e.args == needed), "{needed}");
    }
    for want in &failures {
        let got = cli(&want.args);
        assert_eq!(got.status.code(), Some(want.exit), "{}", want.args);
        assert_eq!(text(&got.stderr), want.stderr, "{}", want.args);
        assert_eq!(text(&got.stdout), want.stdout, "{}", want.args);
    }
}

/// `--src` is read, and so range-checked, only by rooted algorithms.
#[test]
fn an_unrooted_algorithm_ignores_src() {
    let plain = cli("cc gen:kron --json");
    let with_src = cli("cc gen:kron --src 99999999 --json");
    assert_eq!(
        with_src.status.code(),
        Some(0),
        "{}",
        text(&with_src.stderr)
    );
    assert_eq!(
        values_and_iterations(&text(&with_src.stdout)),
        values_and_iterations(&text(&plain.stdout))
    );
    let pagerank = cli("pagerank gen:kron --src 99999999");
    assert_eq!(
        pagerank.status.code(),
        Some(0),
        "{}",
        text(&pagerank.stderr)
    );
    for rooted in ["bfs", "sssp", "bc", "dobfs", "delta", "closeness", "reach"] {
        let out = cli(&format!("{rooted} gen:kron --src 99999999"));
        assert_eq!(out.status.code(), Some(1), "{rooted}");
        assert_eq!(
            text(&out.stderr),
            "run failed: invalid input: source vertex 99999999 out of range (n=512)\n",
            "{rooted}"
        );
    }
}
