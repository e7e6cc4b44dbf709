//! Behavioural tests for the vendored tokio shim: executor, timers,
//! channels, and the epoll-backed TCP types.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tokio::runtime::Runtime;
use tokio::sync::mpsc;
use tokio::time::{sleep, timeout};

fn rt() -> Runtime {
    Runtime::new().unwrap()
}

#[test]
fn block_on_returns_value() {
    assert_eq!(rt().block_on(async { 6 * 7 }), 42);
}

#[test]
fn spawn_and_join() {
    let rt = rt();
    let out = rt.block_on(async {
        let handle = tokio::spawn(async { 1 + 2 });
        handle.await.unwrap()
    });
    assert_eq!(out, 3);
}

#[test]
fn panicking_task_reports_join_error_without_killing_workers() {
    let rt = rt();
    rt.block_on(async {
        let bad = tokio::spawn(async { panic!("boom") });
        assert!(bad.await.is_err());
        // The runtime must still run subsequent tasks.
        let good = tokio::spawn(async { 7 });
        assert_eq!(good.await.unwrap(), 7);
    });
}

#[test]
fn sleep_waits_roughly_the_requested_time() {
    let rt = rt();
    let start = Instant::now();
    rt.block_on(sleep(Duration::from_millis(50)));
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(50),
        "woke early: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "woke far too late: {elapsed:?}"
    );
}

#[test]
fn timeout_elapses_and_passes_through() {
    let rt = rt();
    rt.block_on(async {
        assert!(
            timeout(Duration::from_millis(20), std::future::pending::<()>())
                .await
                .is_err()
        );
        assert_eq!(
            timeout(Duration::from_secs(5), async { 9 }).await.unwrap(),
            9
        );
    });
}

#[test]
fn mpsc_round_trip_and_close() {
    let rt = rt();
    rt.block_on(async {
        let (tx, mut rx) = mpsc::channel::<u32>(4);
        let producer = tokio::spawn(async move {
            for i in 0..100u32 {
                tx.send(i).await.unwrap();
            }
        });
        let mut sum = 0;
        while let Some(v) = rx.recv().await {
            sum += v;
        }
        producer.await.unwrap();
        assert_eq!(sum, 4950);
    });
}

#[test]
fn mpsc_try_send_backpressure() {
    let rt = rt();
    rt.block_on(async {
        let (tx, mut rx) = mpsc::channel::<u8>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(mpsc::error::TrySendError::Full(3))
        ));
        assert_eq!(rx.recv().await, Some(1));
        tx.try_send(3).unwrap();
        drop(rx);
        assert!(matches!(
            tx.try_send(4),
            Err(mpsc::error::TrySendError::Closed(4))
        ));
    });
}

/// A spawned future need not be `Send`: the runtime's thread owns it.
#[test]
fn a_spawned_future_may_hold_an_rc() {
    let rt = rt();
    let shared = Rc::new(Cell::new(1));
    let task = {
        let shared = Rc::clone(&shared);
        rt.spawn(async move {
            sleep(Duration::from_millis(1)).await;
            shared.set(shared.get() + 1);
            shared.get() * 10
        })
    };
    assert_eq!(rt.block_on(task).unwrap(), 20);
    assert_eq!((shared.get(), Rc::strong_count(&shared)), (2, 1));
}

/// Several threads wake the tasks of one runtime at once while its thread
/// waits in `epoll_wait`: each task sees the last of its wakes and ends.
#[test]
fn wakes_from_many_threads_at_once_are_none_of_them_lost() {
    const TASKS: usize = 16;
    const THREADS: usize = 4;
    const ROUNDS: usize = 200;
    struct Gate {
        count: AtomicUsize,
        waker: std::sync::Mutex<Option<std::task::Waker>>,
    }
    let gates: Arc<Vec<Gate>> = Arc::new(
        (0..TASKS)
            .map(|_| Gate {
                count: AtomicUsize::new(0),
                waker: std::sync::Mutex::new(None),
            })
            .collect(),
    );
    let rt = rt();
    let tasks: Vec<_> = (0..TASKS)
        .map(|i| {
            let gates = Arc::clone(&gates);
            rt.spawn(std::future::poll_fn(move |cx| {
                let gate = &gates[i];
                // The waker is in place before the count is read, so a
                // wake either finds it or comes before the read.
                *gate.waker.lock().unwrap() = Some(cx.waker().clone());
                if gate.count.load(Ordering::SeqCst) == THREADS * ROUNDS {
                    std::task::Poll::Ready(())
                } else {
                    std::task::Poll::Pending
                }
            }))
        })
        .collect();
    let start = Arc::new(std::sync::Barrier::new(THREADS));
    let wakers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (gates, start) = (Arc::clone(&gates), Arc::clone(&start));
            std::thread::spawn(move || {
                // By then the runtime's thread waits in epoll_wait.
                std::thread::sleep(Duration::from_millis(20));
                start.wait();
                for _ in 0..ROUNDS {
                    for gate in gates.iter() {
                        gate.count.fetch_add(1, Ordering::SeqCst);
                        let waker = gate.waker.lock().unwrap().clone();
                        if let Some(waker) = waker {
                            waker.wake();
                        }
                    }
                }
            })
        })
        .collect();
    rt.block_on(async {
        for task in tasks {
            timeout(Duration::from_secs(10), task)
                .await
                .expect("a wake was lost")
                .unwrap();
        }
    });
    for waker in wakers {
        waker.join().unwrap();
    }
}

/// A task waiting on a channel, with its nearest timer a second away, is
/// woken by a send from another thread: the send writes the eventfd the
/// runtime's thread waits on.
#[test]
fn a_send_from_another_thread_ends_a_wait_for_a_distant_timer() {
    let rt = rt();
    let (tx, mut rx) = mpsc::channel::<Instant>(1);
    let sender = std::thread::spawn(move || {
        // By then the runtime's thread waits in epoll_wait.
        std::thread::sleep(Duration::from_millis(100));
        tx.try_send(Instant::now()).unwrap();
    });
    let waiter = rt.spawn(async move {
        let sent = timeout(Duration::from_secs(1), rx.recv())
            .await
            .expect("woken before the timer")
            .expect("a message");
        sent.elapsed()
    });
    let latency = rt.block_on(waiter).unwrap();
    sender.join().unwrap();
    assert!(
        latency < Duration::from_millis(50),
        "woken {latency:?} after the send"
    );
}

/// A thread outside the runtime that finds the channel full waits until the
/// receiver has taken a message, then delivers its own.
#[test]
fn blocking_send_waits_for_room() {
    let rt = rt();
    let (tx, mut rx) = mpsc::channel::<u32>(1);
    tx.try_send(1).unwrap();
    let sender = std::thread::spawn(move || {
        tx.blocking_send(2).unwrap();
        tx.blocking_send(3).unwrap();
    });
    let got = rt.block_on(async {
        // Let the sender find the channel full first.
        sleep(Duration::from_millis(30)).await;
        let mut got = Vec::new();
        while let Some(v) = rx.recv().await {
            got.push(v);
        }
        got
    });
    sender.join().unwrap();
    assert_eq!(got, vec![1, 2, 3]);
}

/// A yielding task lets the others queued behind it run before it goes on.
#[test]
fn yield_now_lets_queued_tasks_run() {
    let rt = rt();
    let order = rt.block_on(async {
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let other = {
            let order = order.clone();
            tokio::spawn(async move { order.lock().unwrap().push("other") })
        };
        order.lock().unwrap().push("before");
        tokio::task::yield_now().await;
        order.lock().unwrap().push("after");
        other.await.unwrap();
        let order = order.lock().unwrap().clone();
        order
    });
    assert_eq!(order, vec!["before", "other", "after"]);
}

#[test]
fn tcp_echo_round_trip() {
    let rt = rt();
    rt.block_on(async {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(async move {
            let (mut conn, _) = listener.accept().await.unwrap();
            let mut buf = [0u8; 64];
            loop {
                let n = conn.read(&mut buf).await.unwrap();
                if n == 0 {
                    break;
                }
                conn.write_all(&buf[..n]).await.unwrap();
            }
        });
        let mut client = tokio::net::TcpStream::connect(addr).await.unwrap();
        client.write_all(b"hello epoll").await.unwrap();
        let mut buf = [0u8; 64];
        let n = client.read(&mut buf).await.unwrap();
        assert_eq!(&buf[..n], b"hello epoll");
        client.shutdown_now(std::net::Shutdown::Both).unwrap();
        server.await.unwrap();
    });
}

#[test]
fn tcp_split_halves_work_concurrently() {
    let rt = rt();
    rt.block_on(async {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(async move {
            let (conn, _) = listener.accept().await.unwrap();
            let (mut rh, mut wh) = conn.into_split().unwrap();
            let writer = tokio::spawn(async move {
                for i in 0..50u8 {
                    wh.write_all(&[i; 16]).await.unwrap();
                }
            });
            let mut total = 0usize;
            let mut buf = [0u8; 256];
            while total < 50 * 16 {
                let n = rh.read(&mut buf).await.unwrap();
                assert!(n > 0);
                total += n;
            }
            writer.await.unwrap();
        });
        let client = tokio::net::TcpStream::connect(addr).await.unwrap();
        let (mut rh, mut wh) = client.into_split().unwrap();
        let pump = tokio::spawn(async move {
            for i in 0..50u8 {
                wh.write_all(&[i; 16]).await.unwrap();
            }
        });
        let mut total = 0usize;
        let mut buf = [0u8; 256];
        while total < 50 * 16 {
            let n = rh.read(&mut buf).await.unwrap();
            assert!(n > 0);
            total += n;
        }
        pump.await.unwrap();
        server.await.unwrap();
    });
}

#[test]
fn connect_to_dead_port_errors() {
    let rt = rt();
    rt.block_on(async {
        // Bind-then-drop to get a port that refuses connections.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let result = timeout(Duration::from_secs(5), tokio::net::TcpStream::connect(addr)).await;
        assert!(matches!(result, Ok(Err(_))), "expected refused connect");
    });
}

#[test]
fn many_concurrent_connections() {
    let rt = rt();
    rt.block_on(async {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        let served_srv = served.clone();
        tokio::spawn(async move {
            loop {
                let (mut conn, _) = match listener.accept().await {
                    Ok(pair) => pair,
                    Err(_) => break,
                };
                let served = served_srv.clone();
                tokio::spawn(async move {
                    let mut buf = [0u8; 8];
                    if let Ok(n) = conn.read(&mut buf).await {
                        // Counted before the echo leaves: a client that has
                        // its echo must find itself counted.
                        served.fetch_add(1, Ordering::SeqCst);
                        let _ = conn.write_all(&buf[..n]).await;
                    }
                });
            }
        });
        let mut clients = Vec::new();
        for i in 0..100u32 {
            clients.push(tokio::spawn(async move {
                let mut conn = tokio::net::TcpStream::connect(addr).await.unwrap();
                conn.write_all(&i.to_be_bytes()).await.unwrap();
                let mut buf = [0u8; 8];
                let n = conn.read(&mut buf).await.unwrap();
                assert_eq!(&buf[..n], &i.to_be_bytes());
            }));
        }
        for client in clients {
            timeout(Duration::from_secs(10), client)
                .await
                .expect("client should finish")
                .unwrap();
        }
        assert_eq!(served.load(Ordering::SeqCst), 100);
    });
}

#[test]
fn runtime_drop_tears_down_parked_tasks() {
    let rt = rt();
    let (tx, mut rx) = rt.block_on(async { mpsc::channel::<u8>(1) });
    // Park a task on a socket read forever; dropping the runtime must not
    // hang and must drop the task's future.
    rt.block_on(async {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let _keep = tx;
            let mut conn = tokio::net::TcpStream::connect(addr).await.unwrap();
            let (_held, _) = listener.accept().await.unwrap();
            let mut buf = [0u8; 8];
            let _ = conn.read(&mut buf).await;
        });
        sleep(Duration::from_millis(50)).await;
    });
    drop(rt);
    // The parked task's future (holding `tx`) was dropped, so the channel
    // reports disconnection.
    assert!(matches!(
        rx.try_recv(),
        Err(mpsc::error::TryRecvError::Disconnected)
    ));
}

/// Whether any epoll instance of this process watches the socket behind
/// `fd` (`/proc/self/fdinfo` lists each watched fd with its inode, in hex).
fn watched_by_some_epoll(fd: i32) -> bool {
    let link = std::fs::read_link(format!("/proc/self/fd/{fd}")).unwrap();
    let link = link.to_str().unwrap();
    let inode: u64 = link["socket:[".len()..link.len() - 1].parse().unwrap();
    let needle = format!(" ino:{inode:x} ");
    std::fs::read_dir("/proc/self/fdinfo")
        .unwrap()
        .any(|entry| {
            let info = std::fs::read_to_string(entry.unwrap().path()).unwrap_or_default();
            info.lines()
                .any(|line| line.starts_with("tfd:") && line.contains(&needle))
        })
}

/// Dropping a stream deregisters its fd while the fd is still open. Once
/// the fd is closed, the delete names a number that is no longer this
/// socket's: it fails, and the registration stays for as long as anything
/// else holds the socket (here a clone), or it removes the registration of
/// whichever socket has taken the number meanwhile, whose next wait then
/// fails with `ENOENT` or never wakes.
#[test]
fn a_dropped_stream_is_deregistered_before_its_fd_closes() {
    use std::os::fd::AsRawFd;
    let rt = rt();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dialed = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    rt.block_on(async move {
        for std_stream in [dialed, accepted] {
            let stream = tokio::net::TcpStream::from_std(std_stream).unwrap();
            // A second fd on the same socket keeps it alive past the drop.
            let clone = stream.try_clone_std().unwrap();
            assert!(watched_by_some_epoll(clone.as_raw_fd()), "registered");
            drop(stream);
            assert!(
                !watched_by_some_epoll(clone.as_raw_fd()),
                "the reactor still watches a dropped stream's socket"
            );
        }
    });
}
