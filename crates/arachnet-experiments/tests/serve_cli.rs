//! `repro serve` lifecycle through the real binary and a real socket:
//! bind on an ephemeral port, answer a good query, reject a malformed one
//! with a structured error, shed load when the queue is full, drain
//! cleanly on `shutdown`, and exit 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct Serve {
    child: Child,
    addr: std::net::SocketAddr,
}

fn spawn_serve(extra: &[&str]) -> Serve {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro serve");
    // First stdout line announces the bound (ephemeral) address.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("address line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable address line: {line:?}"));
    // Keep draining stdout in the background so the child never blocks on
    // a full pipe.
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });
    Serve { child, addr }
}

fn query(addr: std::net::SocketAddr, line: &str) -> String {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(line.as_bytes()).unwrap();
    s.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(s).read_line(&mut reply).expect("reply");
    reply.trim_end().to_string()
}

#[test]
fn serve_lifecycle_good_query_malformed_overload_drain_exit_zero() {
    let mut serve = spawn_serve(&["--port", "0", "--workers", "1", "--queue-depth", "1"]);
    let addr = serve.addr;

    // Good query through the real PHY path.
    let reply = query(
        addr,
        r#"{"op":"decode","tag":8,"ul_bps":2000,"packets":1,"seed":3}"#,
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"snr_db\""), "{reply}");

    // Malformed query: structured error, server keeps running.
    let reply = query(addr, "{not json");
    assert!(reply.contains("\"error\":\"malformed\""), "{reply}");

    // Overload: park the single worker, fill the depth-1 queue, then the
    // next request must be shed with a structured rejection.
    let mut park = TcpStream::connect(addr).unwrap();
    park.write_all(b"{\"op\":\"sleep\",\"ms\":1500}\n").unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let mut fill = TcpStream::connect(addr).unwrap();
    fill.write_all(b"{\"op\":\"sleep\",\"ms\":10}\n").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let reply = query(addr, r#"{"op":"decode","tag":1,"ul_bps":2000,"packets":1}"#);
    assert!(reply.contains("\"error\":\"overloaded\""), "{reply}");

    // Drain: the two admitted sleeps still get answers, then exit 0.
    let reply = query(addr, r#"{"op":"shutdown"}"#);
    assert!(reply.contains("\"draining\":true"), "{reply}");
    for s in [park, fill] {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reply = String::new();
        BufReader::new(s)
            .read_line(&mut reply)
            .expect("drain reply");
        assert!(reply.contains("\"ok\":true"), "in-flight answered: {reply}");
    }
    let status = serve.child.wait().expect("child exit");
    assert_eq!(status.code(), Some(0), "clean drain must exit 0");
}

#[test]
fn serve_experiment_op_returns_the_deterministic_metrics_document() {
    let mut serve = spawn_serve(&["--port", "0", "--workers", "1", "--queue-depth", "4"]);
    let addr = serve.addr;
    let reply = query(
        addr,
        r#"{"op":"experiment","id":"table1","quick":true,"seed":9}"#,
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"metrics\":{"), "{reply}");
    assert!(reply.contains("\"experiment\":\"table1\""), "{reply}");
    // Unknown id: a structured error, not a dead worker.
    let reply = query(addr, r#"{"op":"experiment","id":"nope"}"#);
    assert!(reply.contains("\"error\""), "{reply}");
    let _ = query(addr, r#"{"op":"shutdown"}"#);
    assert_eq!(serve.child.wait().unwrap().code(), Some(0));
}
