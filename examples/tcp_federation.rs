//! Multi-process-style federation over real TCP sockets: the same byte
//! protocol the in-process simulator uses, but across a listener on
//! localhost — the shape of an actual NVFlare deployment (server machine +
//! hospital clients).
//!
//! For a fast demonstration the "training" is the arithmetic test executor;
//! swap in `clinfl::ClinicalExecutor` for real model training.
//!
//! ```sh
//! cargo run --release --example tcp_federation
//! ```

use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::client::{ClientBehavior, FlClient};
use clinfl_flare::codec::CodecSpec;
use clinfl_flare::controller::{SagConfig, ScatterAndGather};
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::persistor::InMemoryPersistor;
use clinfl_flare::provision::Project;
use clinfl_flare::server::FlServer;
use clinfl_flare::transport::TcpTransport;
use clinfl_flare::{EventLog, WeightTensor, Weights};
use std::time::Duration;

fn main() {
    let n_clients = 3;
    let log = EventLog::echoing();
    let provisioned = Project::with_n_sites("tcp_demo", n_clients, 99).provision();

    let listener = TcpTransport::listen("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    println!("FL server listening on {addr}");

    let mut server = FlServer::new(provisioned.server.clone(), log.clone(), 99);

    // Hospital clients: each its own thread with its own TCP connection.
    let mut client_threads = Vec::new();
    for (i, package) in provisioned.sites.iter().cloned().enumerate() {
        let addr = addr.clone();
        let clog = log.clone();
        client_threads.push(std::thread::spawn(move || {
            let conn = TcpTransport::connect(&addr).expect("connect");
            let mut client =
                FlClient::register(conn, &package, 0xC0FFEE + i as u64, &CodecSpec::raw(), clog)
                    .expect("register");
            let mut executor = ArithmeticExecutor {
                delta: (i + 1) as f32,
                n_examples: 100,
            };
            client
                .run(&mut executor, ClientBehavior::default())
                .expect("client loop")
        }));
    }

    for _ in 0..n_clients {
        let (stream, peer) = listener.accept().expect("accept");
        println!("accepted connection from {peer}");
        server.serve_connection(TcpTransport::from_stream(stream).expect("split"));
    }
    server.wait_for_clients(n_clients, Duration::from_secs(10));

    let mut initial = Weights::new();
    initial.insert("w".into(), WeightTensor::new(vec![4], vec![0.0; 4]));

    let sag = ScatterAndGather::new(
        SagConfig {
            rounds: 3,
            min_clients: n_clients,
            round_timeout: Duration::from_secs(30),
            validate_global: true,
            ..SagConfig::default()
        },
        log.clone(),
    );
    let mut persistor = InMemoryPersistor::new();
    let result = sag
        .run(&mut server, &WeightedFedAvg, &mut persistor, initial)
        .expect("workflow");

    for t in client_threads {
        t.join().expect("client thread");
    }
    server.shutdown();

    // Equal example counts → FedAvg moves +mean(1,2,3) = +2 per round.
    println!(
        "\nFinal global weights after 3 rounds over TCP: {:?} (expected [6, 6, 6, 6])",
        result.final_weights["w"].data
    );
}
