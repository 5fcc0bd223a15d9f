//! `chronos-agent` — the standalone agent daemon for the bundled minidoc
//! evaluation client.
//!
//! Connects to a running `chronos-control`, logs in, and executes jobs for
//! one deployment until stopped (or until the queue stays idle with
//! `--exit-when-idle`).
//!
//! ```text
//! chronos-agent --control http://127.0.0.1:8080 \
//!               --username agent --password pw \
//!               --deployment 01ARZ3NDEKTSV4RRFFQ69G5FAV
//! ```

use std::time::Duration;

use chronos_agent::{AgentConfig, ChronosAgent, ControlClient, DocstoreClient, LocalDirSink};
use chronos_util::Id;

struct Options {
    control: String,
    username: String,
    password: String,
    deployment: Option<Id>,
    exit_when_idle: bool,
    sink_dir: Option<std::path::PathBuf>,
    heartbeat_millis: u64,
    deadline_millis: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: chronos-agent [options]\n\
         \n\
         options:\n\
           --control URL        Chronos Control base URL (default http://127.0.0.1:8080)\n\
           --username NAME      login user (default: agent)\n\
           --password PW        login password\n\
           --deployment ID      deployment to execute jobs for (required)\n\
           --sink-dir DIR       write result archives to DIR (NAS sink) instead of\n\
                                uploading them inline\n\
           --heartbeat MS       heartbeat interval (default 1000)\n\
           --deadline MS        per-request deadline budget stamped as\n\
                                X-Chronos-Deadline-Ms (default 10000; 0 disables)\n\
           --exit-when-idle     stop once the queue stays empty for 5 s\n\
           --help               show this help"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        control: "http://127.0.0.1:8080".to_string(),
        username: "agent".to_string(),
        password: String::new(),
        deployment: None,
        exit_when_idle: false,
        sink_dir: None,
        heartbeat_millis: 1_000,
        deadline_millis: 10_000,
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
            "--control" => options.control = value("--control"),
            "--username" => options.username = value("--username"),
            "--password" => options.password = value("--password"),
            "--deployment" => {
                let raw = value("--deployment");
                options.deployment = Some(Id::parse_base32(&raw).unwrap_or_else(|e| {
                    eprintln!("bad deployment id {raw:?}: {e}");
                    std::process::exit(2);
                }));
            }
            "--sink-dir" => options.sink_dir = Some(value("--sink-dir").into()),
            "--heartbeat" => {
                options.heartbeat_millis = value("--heartbeat").parse().unwrap_or_else(|_| usage())
            }
            "--deadline" => {
                options.deadline_millis = value("--deadline").parse().unwrap_or_else(|_| usage())
            }
            "--exit-when-idle" => options.exit_when_idle = true,
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
    let Some(deployment) = options.deployment else {
        eprintln!("--deployment is required");
        usage();
    };
    let client = match ControlClient::login(&options.control, &options.username, &options.password)
    {
        Ok(client) if options.deadline_millis > 0 => {
            client.with_deadline(Duration::from_millis(options.deadline_millis))
        }
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot log in to {}: {e}", options.control);
            std::process::exit(1);
        }
    };
    eprintln!("connected to {} as {:?}", options.control, options.username);

    let mut config = AgentConfig::new(deployment);
    config.heartbeat_interval = Duration::from_millis(options.heartbeat_millis);
    if let Some(dir) = &options.sink_dir {
        eprintln!("result archives go to {} (NAS sink)", dir.display());
        config.sink = Box::new(LocalDirSink::new(dir.clone()));
    }
    let mut agent = ChronosAgent::new(client, config, DocstoreClient::new());

    if options.exit_when_idle {
        match agent.run_until_idle(Duration::from_secs(5)) {
            Ok(completed) => {
                eprintln!("queue idle; completed {completed} jobs");
            }
            Err(e) => {
                eprintln!("agent error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut completed: u64 = 0;
    #[allow(clippy::disallowed_methods)] // idle poll and error back-off: no job to wake for
    loop {
        match agent.run_once() {
            Ok(true) => {
                completed += 1;
                eprintln!("job done ({completed} total)");
            }
            Ok(false) => std::thread::sleep(Duration::from_millis(500)),
            Err(e) => {
                eprintln!("agent error: {e}; retrying in 5 s");
                std::thread::sleep(Duration::from_secs(5));
            }
        }
    }
}
