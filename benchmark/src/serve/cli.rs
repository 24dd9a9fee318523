//! What a CLI user pays, and the parity of the spawned server's answers.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use super::{Algo, Req, Server};
use crate::http::request;
use crate::report::{RunArgs, RunReport};
use crate::util::ms;

/// What a CLI user pays: time until a spawned `sygraph-cli serve` answers
/// `/ready`, and the wall time of a one-shot `sygraph-cli bfs`. The served
/// BFS must be bit-equal to the in-process server's answer.
pub(super) fn cli_probes(server: &Server, args: &RunArgs, report: &mut RunReport) {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let cli = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("sygraph-cli")))
        .filter(|p| p.exists());
    let Some(cli) = cli else {
        report
            .notes
            .push("sygraph-cli is not beside the benchmark binary; cli.* probes skipped".into());
        return;
    };
    let scale = if args.smoke { "test" } else { "bench" };
    let source = server.pools["kron"][0];
    let req = Req {
        graph: "kron",
        algo: Algo::Bfs,
        source: Some(source),
        repeat: false,
    };

    report.attempted += 1;
    let t = Instant::now();
    let child = Command::new(&cli)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--graphs",
            "kron=gen:kron",
        ])
        .env("SYG_SCALE", scale)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    match child {
        Err(e) => report.fail(format!("spawn sygraph-cli serve: {e}")),
        Ok(mut child) => {
            let verdict = (|| -> Result<f64, String> {
                let stdout = child.stdout.take().ok_or("no stdout pipe")?;
                let mut line = String::new();
                BufReader::new(stdout)
                    .read_line(&mut line)
                    .map_err(|e| e.to_string())?;
                let addr: SocketAddr = line
                    .trim()
                    .rsplit_once("http://")
                    .ok_or(format!("unexpected first line {line:?}"))?
                    .1
                    .parse()
                    .map_err(|e| format!("{line:?}: {e}"))?;
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    match request(addr, "GET", "/ready", "") {
                        Ok(r) if r.status == 200 => break,
                        _ if Instant::now() > deadline => return Err("never became ready".into()),
                        _ => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
                let ready_ms = ms(t.elapsed());
                let theirs = request(addr, "POST", "/jobs?wait=1&values=1", &req.body(true))
                    .map_err(|e| e.to_string())?;
                let ours = request(
                    server.addr,
                    "POST",
                    "/jobs?wait=1&values=1",
                    &req.body(true),
                )
                .map_err(|e| e.to_string())?;
                match (theirs.values_text(), ours.values_text()) {
                    (Some(a), Some(b)) if a == b => Ok(ready_ms),
                    _ => Err("served BFS differs from the in-process server's".into()),
                }
            })();
            // SIGKILL, then reap: the child is a throwaway.
            let _ = child.kill();
            let _ = child.wait();
            match verdict {
                Ok(ready_ms) => report.set("cli.serve_ready_ms", ready_ms),
                Err(why) => report.fail(format!("sygraph-cli serve: {why}")),
            }
        }
    }

    report.attempted += 1;
    let t = Instant::now();
    let oneshot = Command::new(&cli)
        .args(["bfs", "gen:kron", "--src", &source.to_string()])
        .env("SYG_SCALE", scale)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    match oneshot {
        Ok(status) if status.success() => report.set("cli.oneshot_bfs_ms", ms(t.elapsed())),
        Ok(status) => report.fail(format!("sygraph-cli bfs exited {status}")),
        Err(e) => report.fail(format!("spawn sygraph-cli bfs: {e}")),
    }
}
