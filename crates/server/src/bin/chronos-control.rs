//! `chronos-control` — the standalone Chronos Control daemon.
//!
//! The deployable form of the toolkit's server half: a durable metadata
//! store on disk, the versioned REST API, the failure sweeper, and a
//! bootstrapped admin account.
//!
//! ```text
//! chronos-control --listen 0.0.0.0:8080 --data /var/lib/chronos \
//!                 --admin-password change-me
//! ```

use std::sync::Arc;

use chronos_core::auth::Role;
use chronos_core::cluster::ClusterConfig;
use chronos_core::scheduler::SchedulerConfig;
use chronos_core::store::MetadataStore;
use chronos_core::ChronosControl;
use chronos_server::ChronosServer;
use chronos_util::SystemClock;

struct Options {
    listen: String,
    data: Option<std::path::PathBuf>,
    admin_user: String,
    admin_password: Option<String>,
    heartbeat_timeout_millis: u64,
    max_attempts: u32,
    node_id: Option<String>,
    peers: Vec<String>,
    lease_millis: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: chronos-control [options]\n\
         \n\
         options:\n\
           --listen ADDR             bind address (default 127.0.0.1:8080)\n\
           --data DIR                durable metadata directory (default: in-memory)\n\
           --admin-user NAME         bootstrap admin username (default: admin)\n\
           --admin-password PW       bootstrap admin password (created if the user\n\
                                     does not exist yet)\n\
           --heartbeat-timeout MS    job lease timeout (default 30000)\n\
           --max-attempts N          attempts before a job stays failed (default 3)\n\
           --node-id NAME            enable cluster mode with this node identity\n\
           --peer URL                a peer node's base URL (repeatable; cluster mode)\n\
           --lease MS                cluster leader lease (default 1000; cluster mode)\n\
           --help                    show this help"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        listen: "127.0.0.1:8080".to_string(),
        data: None,
        admin_user: "admin".to_string(),
        admin_password: None,
        heartbeat_timeout_millis: 30_000,
        max_attempts: 3,
        node_id: None,
        peers: Vec::new(),
        lease_millis: 1_000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--listen" => options.listen = value("--listen"),
            "--data" => options.data = Some(value("--data").into()),
            "--admin-user" => options.admin_user = value("--admin-user"),
            "--admin-password" => options.admin_password = Some(value("--admin-password")),
            "--heartbeat-timeout" => {
                options.heartbeat_timeout_millis =
                    value("--heartbeat-timeout").parse().unwrap_or_else(|_| usage())
            }
            "--max-attempts" => {
                options.max_attempts = value("--max-attempts").parse().unwrap_or_else(|_| usage())
            }
            "--node-id" => options.node_id = Some(value("--node-id")),
            "--peer" => options.peers.push(value("--peer")),
            "--lease" => {
                options.lease_millis = value("--lease").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    options
}

fn main() {
    let options = parse_options();
    let store = match &options.data {
        Some(dir) => {
            let path = dir.join("chronos-control.log");
            match MetadataStore::open(&path) {
                Ok(store) => {
                    eprintln!(
                        "metadata store: {} ({} log records)",
                        path.display(),
                        store.log_records()
                    );
                    store
                }
                Err(e) => {
                    eprintln!("cannot open metadata store at {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        None => {
            eprintln!("metadata store: in-memory (no --data given; state is lost on exit)");
            MetadataStore::in_memory()
        }
    };
    let control = Arc::new(ChronosControl::new(
        store,
        Arc::new(SystemClock),
        SchedulerConfig {
            heartbeat_timeout_millis: options.heartbeat_timeout_millis,
            max_attempts: options.max_attempts,
            auto_reschedule: true,
        },
    ));

    if let Some(password) = &options.admin_password {
        match control.create_user(&options.admin_user, password, Role::Admin) {
            Ok(user) => eprintln!("created admin user {:?} ({})", user.username, user.id),
            Err(chronos_core::CoreError::Conflict(_)) => {
                eprintln!("admin user {:?} already exists", options.admin_user)
            }
            Err(e) => {
                eprintln!("cannot create admin user: {e}");
                std::process::exit(1);
            }
        }
    }

    let started = match &options.node_id {
        Some(node_id) => {
            let cluster = ClusterConfig::new(node_id.clone())
                .with_lease(std::time::Duration::from_millis(options.lease_millis));
            ChronosServer::start_cluster(
                Arc::clone(&control),
                &options.listen,
                chronos_http::Server::new(),
                cluster,
            )
        }
        None => ChronosServer::start(Arc::clone(&control), &options.listen),
    };
    let mut server = match started {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", options.listen);
            std::process::exit(1);
        }
    };
    if options.node_id.is_some() {
        server.set_cluster_peers(options.peers.clone());
        eprintln!(
            "cluster mode: node {:?}, {} peer(s), lease {}ms",
            options.node_id.as_deref().unwrap_or_default(),
            options.peers.len(),
            options.lease_millis
        );
    }
    eprintln!("Chronos Control listening on {}", server.base_url());
    eprintln!("API index: {}/api", server.base_url());

    shutdown_signal::install();
    // Serve until asked to stop, then drain: finish in-flight requests,
    // refuse new ones with typed 503s, and persist a clean store.
    while !shutdown_signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    eprintln!("shutdown signal received; draining...");
    let clean = server.drain();
    server.shutdown();
    if !clean {
        eprintln!("drain timed out with requests still in flight");
        std::process::exit(1);
    }
    eprintln!("drain complete: all in-flight requests finished");
    // Rewrite the log to one record per live document, so the next start
    // replays the state rather than its history. A failed compaction
    // leaves the old log in place (the swap is an atomic rename).
    if let Err(e) = control.compact_store() {
        eprintln!("cannot compact the metadata store: {e}");
        std::process::exit(1);
    }
}

/// SIGTERM/SIGINT handling without a signal crate: the handler only flips
/// an atomic flag (async-signal-safe) that the main loop polls.
#[cfg(unix)]
mod shutdown_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Non-unix fallback: no signal hooks; the process serves until killed.
#[cfg(not(unix))]
mod shutdown_signal {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}
