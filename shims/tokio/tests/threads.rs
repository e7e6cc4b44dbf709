//! The runtime is the thread that drives it: building one and running
//! tasks, timers and sockets on it starts no OS thread.
//!
//! The test lives in its own file so the counted process contains only
//! this scenario's threads.

use std::time::Duration;

use tokio::runtime::Runtime;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

#[test]
fn a_runtime_starts_no_thread() {
    let before = threads();
    if before == 0 {
        eprintln!("skipping: /proc/self/task unavailable");
        return;
    }
    let rt = Runtime::new().unwrap();
    assert_eq!(threads(), before, "building a runtime");
    let during = rt.block_on(async {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(async move {
            let (mut conn, _) = listener.accept().await.unwrap();
            conn.write_all(b"x").await.unwrap();
        });
        let mut client = tokio::net::TcpStream::connect(addr).await.unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(client.read(&mut byte).await.unwrap(), 1);
        server.await.unwrap();
        tokio::time::sleep(Duration::from_millis(5)).await;
        threads()
    });
    assert_eq!(during, before, "running tasks, a timer and sockets");
    drop(rt);
    assert_eq!(threads(), before);
}
