//! The `rsn-serve` daemon binary.
//!
//! ```text
//! rsn-serve --port 7223 --threads 4 --queue 64 --deadline-ms 30000
//! ```

use std::process::ExitCode;
use std::time::Duration;

use rsn_serve::{Server, ServerOptions};

const USAGE: &str = "\
rsn-serve - resident RSN analysis service

USAGE:
    rsn-serve [OPTIONS]

OPTIONS:
    --addr <ADDR>          bind address [default: 127.0.0.1]
    --port <PORT>          bind port, 0 picks a free one [default: 7223]
    --threads <N>          worker threads [default: 4]
    --queue <N>            pending-connection queue capacity [default: 64]
    --deadline-ms <MS>     per-request deadline, 0 = unlimited [default: 30000]
    --cache <N>            networks kept in the artifact cache [default: 16]
    --sweep-threads <N>    default threads per fault sweep [default: 2]
    --breaker-threshold <N>    consecutive failures opening a network's
                               circuit breaker [default: 3]
    --breaker-cooldown-ms <MS> how long an open breaker rejects before
                               probing again [default: 2000]
    --help                 print this help

ENVIRONMENT:
    RSN_FAIL    chaos failpoint spec, e.g.
                \"sat.solve=panic@0.3,42;serve.parse=err\"
                (see the rsn-fail crate for the grammar)
";

fn main() -> ExitCode {
    let mut opts = ServerOptions::default();
    let mut host = "127.0.0.1".to_string();
    let mut port: u16 = 7223;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--addr" => host = value("--addr"),
            "--port" => port = parse(&value("--port"), "--port"),
            "--threads" => opts.workers = parse(&value("--threads"), "--threads"),
            "--queue" => opts.queue_cap = parse(&value("--queue"), "--queue"),
            "--deadline-ms" => {
                let ms: u64 = parse(&value("--deadline-ms"), "--deadline-ms");
                opts.deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--cache" => opts.cache_cap = parse(&value("--cache"), "--cache"),
            "--sweep-threads" => {
                opts.sweep_threads = parse(&value("--sweep-threads"), "--sweep-threads")
            }
            "--breaker-threshold" => {
                opts.breaker.threshold = parse(&value("--breaker-threshold"), "--breaker-threshold")
            }
            "--breaker-cooldown-ms" => {
                let ms: u64 = parse(&value("--breaker-cooldown-ms"), "--breaker-cooldown-ms");
                opts.breaker.cooldown = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => fail(&format!("unknown option: {other}")),
        }
    }
    opts.addr = format!("{host}:{port}");

    // Surface a bad RSN_FAIL spec at startup instead of on first request.
    if let Err(e) = rsn_fail::init_from_env() {
        fail(&format!("bad RSN_FAIL spec: {e}"));
    }

    let server = match Server::bind(opts.clone()) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot bind {}: {e}", opts.addr)),
    };
    match server.local_addr() {
        Ok(addr) => println!("rsn-serve listening on http://{addr}"),
        Err(_) => println!("rsn-serve listening on http://{}", opts.addr),
    }
    if let Err(e) = server.run() {
        fail(&format!("server error: {e}"));
    }
    println!("rsn-serve: drained, shutting down");
    ExitCode::SUCCESS
}

fn parse<T: std::str::FromStr>(text: &str, name: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("invalid value for {name}: {text}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("rsn-serve: {msg}\n\n{USAGE}");
    std::process::exit(2)
}
