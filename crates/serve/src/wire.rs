//! The line-delimited JSON wire protocol over a std TCP listener.
//!
//! One request per line, one reply per line.  Every reply carries
//! `"ok": true|false`; failures add `"error"`.  Operations:
//!
//! * `{"op":"ping"}` — liveness probe;
//! * `{"op":"compile","plan":ID,"precision":"2d","num_variables":N,
//!   "degree":D,"constant":C,"monomials":[{"coefficient":A,
//!   "variables":[..]},..]}` — compile and register a plan (`precision`
//!   defaults to the engine's, `constant` to 0);
//! * `{"op":"eval","plan":ID,"inputs":[[c0,c1,..] per variable]}` —
//!   evaluate; the reply carries `value`, `gradient` and `coalesced` (how
//!   many concurrent requests shared the launch);
//! * `{"op":"metrics","plan":ID}` — the plan's [`MetricsSnapshot`] fields.
//!
//! Each connection gets its own thread, so concurrent `eval` lines from
//! different connections reach the plan queue concurrently and coalesce —
//! the wire path exercises exactly the in-process protocol.
//!
//! Hostile input is bounded: a request line longer than [`MAX_LINE_BYTES`]
//! gets one error reply and the connection is closed, so no client can make
//! the server buffer an unbounded line; nesting deeper than
//! [`json::MAX_DEPTH`](crate::json::MAX_DEPTH) is a parse error.
//!
//! [`MetricsSnapshot`]: crate::MetricsSnapshot

use crate::json::{num_array, obj, Json};
use crate::service::{ServeError, Service};
use psmd_multidouble::Precision;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest request line the server reads, in bytes, not counting the
/// newline.  The largest protocol request (compiling the full 1,820-monomial
/// test polynomials, or evaluating 16 variables at degree 152) is about a
/// tenth of this.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a connection closed for an over-long line keeps discarding the
/// rest of the client's input, so the close does not reset the connection
/// before the client has read the error reply.
const CLOSE_LINGER: Duration = Duration::from_secs(2);

/// A running wire server: accepts connections until shut down (or
/// dropped).
pub struct WireServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds a listener (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    pub fn bind(service: Arc<Service>, addr: &str) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let _ = handle_connection(service, stream);
                });
            }
        });
        Ok(WireServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.  Already
    /// established connections finish on their own threads.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(service: Arc<Service>, stream: TcpStream) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap: a line that fills it has no newline yet.
        let read = (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(());
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_LINE_BYTES {
            let reply = error_reply(format!(
                "request line longer than {MAX_LINE_BYTES} bytes; closing the connection"
            ));
            write_reply(&mut writer, &reply)?;
            return linger_close(&writer, reader);
        }
        let reply = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => handle_line(&service, text),
            Err(_) => error_reply("request line is not valid UTF-8"),
        };
        write_reply(&mut writer, &reply)?;
    }
}

fn write_reply(writer: &mut TcpStream, reply: &Json) -> std::io::Result<()> {
    writer.write_all(reply.to_string().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Half-closes the connection after its final reply, then discards input
/// through a fixed buffer until the client closes or [`CLOSE_LINGER`]
/// passes.
fn linger_close(writer: &TcpStream, mut reader: BufReader<TcpStream>) -> std::io::Result<()> {
    writer.shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + CLOSE_LINGER;
    let mut sink = [0u8; 8192];
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if left.is_zero() {
            break;
        }
        reader.get_ref().set_read_timeout(Some(left))?;
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

fn error_reply(message: impl Into<String>) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

fn handle_line(service: &Service, line: &str) -> Json {
    let request = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_reply(format!("bad json: {e}")),
    };
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return error_reply("missing 'op'");
    };
    let result = match op {
        "ping" => Ok(obj(vec![
            ("ok", Json::Bool(true)),
            ("pong", Json::Bool(true)),
        ])),
        "compile" => op_compile(service, &request),
        "eval" => op_eval(service, &request),
        "metrics" => op_metrics(service, &request),
        other => Err(format!("unknown op '{other}'")),
    };
    match result {
        Ok(reply) => reply,
        Err(message) => error_reply(message),
    }
}

fn plan_id(request: &Json) -> Result<&str, String> {
    request
        .get("plan")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing 'plan'".to_string())
}

fn serve_err(e: ServeError) -> String {
    e.to_string()
}

fn op_compile(service: &Service, request: &Json) -> Result<Json, String> {
    let id = plan_id(request)?;
    let precision = match request.get("precision").and_then(Json::as_str) {
        Some(label) => {
            Precision::parse_label(label).ok_or_else(|| format!("unknown precision '{label}'"))?
        }
        None => service.engine().precision(),
    };
    let num_variables = request
        .get("num_variables")
        .and_then(Json::as_usize)
        .ok_or_else(|| "missing 'num_variables'".to_string())?;
    let degree = request
        .get("degree")
        .and_then(Json::as_usize)
        .ok_or_else(|| "missing 'degree'".to_string())?;
    let constant = request
        .get("constant")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let monomials_json = request
        .get("monomials")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'monomials'".to_string())?;
    let mut monomials = Vec::with_capacity(monomials_json.len());
    for (i, m) in monomials_json.iter().enumerate() {
        let coefficient = m
            .get("coefficient")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("monomial {i}: missing 'coefficient'"))?;
        let variables = m
            .get("variables")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("monomial {i}: missing 'variables'"))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| format!("monomial {i}: non-integer variable index"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        monomials.push((coefficient, variables));
    }
    service
        .register_f64(id, precision, num_variables, degree, constant, &monomials)
        .map_err(serve_err)?;
    Ok(obj(vec![
        ("ok", Json::Bool(true)),
        ("plan", Json::Str(id.to_string())),
        ("precision", Json::Str(precision.label().to_string())),
    ]))
}

fn op_eval(service: &Service, request: &Json) -> Result<Json, String> {
    let id = plan_id(request)?;
    let inputs_json = request
        .get("inputs")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'inputs'".to_string())?;
    let mut inputs = Vec::with_capacity(inputs_json.len());
    for (v, series) in inputs_json.iter().enumerate() {
        let coeffs = series
            .as_array()
            .ok_or_else(|| format!("input {v} is not an array"))?
            .iter()
            .map(|c| {
                c.as_f64()
                    .ok_or_else(|| format!("input {v}: non-numeric coefficient"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        inputs.push(coeffs);
    }
    let evaluation = service.submit_f64(id, &inputs).map_err(serve_err)?;
    Ok(obj(vec![
        ("ok", Json::Bool(true)),
        ("value", num_array(&evaluation.value)),
        (
            "gradient",
            Json::Arr(evaluation.gradient.iter().map(|g| num_array(g)).collect()),
        ),
        ("coalesced", Json::Num(evaluation.coalesced as f64)),
    ]))
}

fn op_metrics(service: &Service, request: &Json) -> Result<Json, String> {
    let id = plan_id(request)?;
    let snapshot = service.metrics(id).map_err(serve_err)?;
    let histogram = snapshot
        .batch_histogram
        .iter()
        .map(|&n| Json::Num(n as f64))
        .collect();
    let abandon_histogram = snapshot
        .abandon_histogram
        .iter()
        .map(|&n| Json::Num(n as f64))
        .collect();
    Ok(obj(vec![
        ("ok", Json::Bool(true)),
        ("submitted", Json::Num(snapshot.submitted as f64)),
        ("completed", Json::Num(snapshot.completed as f64)),
        ("busy_rejected", Json::Num(snapshot.busy_rejected as f64)),
        (
            "deadline_expired",
            Json::Num(snapshot.deadline_expired as f64),
        ),
        ("launches", Json::Num(snapshot.launches as f64)),
        ("launches_saved", Json::Num(snapshot.launches_saved as f64)),
        (
            "cancelled_launches",
            Json::Num(snapshot.cancelled_launches as f64),
        ),
        ("detached_slots", Json::Num(snapshot.detached_slots as f64)),
        ("mean_batch", Json::Num(snapshot.mean_batch())),
        ("batch_histogram", Json::Arr(histogram)),
        ("abandon_histogram", Json::Arr(abandon_histogram)),
        ("queue_depth", Json::Num(snapshot.queue_depth as f64)),
        ("p50_us", Json::Num(snapshot.p50_us as f64)),
        ("p99_us", Json::Num(snapshot.p99_us as f64)),
        (
            "plan_cache_hits",
            Json::Num(snapshot.plan_cache.map_or(0, |c| c.hits) as f64),
        ),
        (
            "pool_rendezvous",
            Json::Num(snapshot.pool_rendezvous.unwrap_or(0) as f64),
        ),
    ]))
}
