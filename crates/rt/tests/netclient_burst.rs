//! A burst of approval requests in one frame: the socket reader answers
//! each itself, under the client's driver lock, while the rest of the
//! burst waits in the socket. A reader held at that lock stops reading,
//! and TCP flow control carries the stall back to the server. Every
//! request is still answered, once, in order.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_core::{ClientId, ToClient, ToServer, Version, WriteId};
use lease_net::tcp::FrameAccum;
use lease_rt::{NetClient, NetClientConfig};
use lease_wire::{frame_messages, Dir, FrameBuilder, HEADER_LEN};

/// Far more than one socket buffer's worth of answers.
const BURST: u64 = 5_000;

#[test]
fn a_burst_of_approval_requests_is_answered_once_each_in_order() {
    // A stand-in server: takes the hello, then sends one frame of BURST
    // approval requests. The client answers each with an `Approve`
    // carrying the same write id, so the order it saw them in is visible
    // from here.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fleet = NetClient::connect(NetClientConfig::new(addr, 1));
    let (mut conn, _) = listener.accept().expect("accept");
    let mut hello = [0u8; HEADER_LEN];
    conn.read_exact(&mut hello).expect("hello");

    let mut out = conn.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let mut wire = Vec::new();
        let mut fb = FrameBuilder::begin(&mut wire, Dir::S2c, ClientId(0));
        for n in 0..BURST {
            let ask: ToClient<u64, Bytes> = ToClient::ApprovalRequest {
                write_id: WriteId(n),
                resource: n % 8,
                replaces: Version(1),
            };
            fb.push_s2c(&mut wire, &ask);
        }
        fb.finish(&mut wire);
        out.write_all(&wire).expect("write burst");
    });

    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    let mut accum = FrameAccum::new();
    let mut next = 0u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while next < BURST {
        assert!(Instant::now() < deadline, "{next} of {BURST} approvals");
        match accum.fill(&mut conn) {
            Ok(0) => panic!("client hung up after {next} approvals"),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("read: {e}"),
        }
        while let Some(frame) = accum.next_frame().expect("well-formed stream") {
            let (_, mut it) = frame_messages(frame).expect("frame");
            while let Some((m, _)) = it.next_c2s::<u64, Bytes>().expect("message") {
                match m {
                    ToServer::Approve { write_id } => {
                        assert_eq!(write_id, WriteId(next), "approvals out of order");
                        next += 1;
                    }
                    other => panic!("unexpected message {other:?}"),
                }
            }
        }
    }
    writer.join().expect("writer");
    fleet.shutdown();
}
