//! `--checkpoint-dir` through the real binary (ISSUE 10 satellite): a
//! not-yet-existing (nested) directory is created and receives the
//! checkpoint + journal artifacts, `--resume` picks them up from there,
//! and a directory that cannot be created is a clear exit-3 error — never
//! a panic. A resume also ignores a checkpoint that a run with other
//! settings wrote.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arachnet_ckptdir_{label}_{}", std::process::id()));
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
fn missing_checkpoint_dir_is_created_and_resume_works_from_it() {
    let dir = scratch("create");
    // `state/ckpts` does not exist yet — two levels deep on purpose.
    let halted = repro_in(
        &dir,
        &[
            "metrics",
            "dyn-churn",
            "--quick",
            "--seed",
            "7",
            "--threads",
            "2",
            "--checkpoint-every",
            "1",
            "--halt-after",
            "3",
            "--journal",
            "--checkpoint-dir",
            "state/ckpts",
        ],
    );
    assert_eq!(halted.status.code(), Some(0), "{halted:?}");
    let ckpt = dir.join("state/ckpts/CHECKPOINT_dyn-churn.bin");
    assert!(ckpt.exists(), "checkpoint must land in the created dir");
    assert!(
        dir.join("state/ckpts/JOURNAL_dyn-churn.jsonl").exists(),
        "journal must follow the checkpoint dir"
    );
    assert!(
        !dir.join("CHECKPOINT_dyn-churn.bin").exists(),
        "nothing may leak into the working directory"
    );
    let resumed = repro_in(
        &dir,
        &[
            "metrics",
            "dyn-churn",
            "--quick",
            "--seed",
            "7",
            "--threads",
            "2",
            "--resume",
            "--checkpoint-dir",
            "state/ckpts",
        ],
    );
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resumed:"), "{stdout}");
    assert!(!ckpt.exists(), "a completed resume deletes the checkpoint");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_ignores_a_checkpoint_written_by_a_run_with_other_settings() {
    // `run` records no flight-recorder events and `metrics` does, so the
    // trials a halted `run` checkpointed are not what `metrics` computes:
    // the resume must restore nothing and still match an uninterrupted run.
    let dir = scratch("foreign");
    let fresh = dir.join("fresh");
    fs::create_dir_all(&fresh).unwrap();
    let common = ["dyn-churn", "--quick", "--seed", "7", "--threads", "2"];
    let halt = ["--checkpoint-every", "1", "--halt-after", "3"];
    let halted = repro_in(&dir, &[&["run"], &common[..], &halt].concat());
    assert_eq!(halted.status.code(), Some(0), "{halted:?}");
    assert!(dir.join("CHECKPOINT_dyn-churn.bin").exists());
    let resumed = repro_in(&dir, &[&["metrics"], &common[..], &["--resume"]].concat());
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(!stdout.contains("resumed:"), "{stdout}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("does not reproduce"), "{stderr}");
    let uninterrupted = repro_in(&fresh, &[&["metrics"], &common[..]].concat());
    assert_eq!(uninterrupted.status.code(), Some(0), "{uninterrupted:?}");
    assert_eq!(
        fs::read(dir.join("METRICS_dyn-churn.json")).unwrap(),
        fs::read(fresh.join("METRICS_dyn-churn.json")).unwrap()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn uncreatable_checkpoint_dir_is_a_clean_exit_3_not_a_panic() {
    let dir = scratch("blocked");
    // A regular file where the directory path needs to go: create_dir_all
    // cannot succeed through it.
    fs::write(dir.join("blocker"), b"i am a file").unwrap();
    let out = repro_in(
        &dir,
        &[
            "run",
            "dyn-churn",
            "--quick",
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            "blocker/sub",
        ],
    );
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create --checkpoint-dir"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must be an error, not a panic: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}
