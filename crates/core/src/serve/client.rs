//! A small synchronous client for the serve protocol, used by the CLI
//! `submit`/`shutdown` commands and the service-level test harness.

use super::json::{escape, Json};
use super::protocol::{write_line, JobSpec, SERVE_PROTOCOL_VERSION};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

/// One connection to a serve daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Everything one streamed job produced on this connection: the raw
/// lines (header, events, summary) and the parsed final `done` object.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Every line the server sent before `done`, verbatim.
    pub lines: Vec<String>,
    /// The parsed `done` object.
    pub done: Json,
}

impl JobOutcome {
    /// The job's terminal status (`done` / `failed` / `cancelled`).
    pub fn status(&self) -> &str {
        self.done
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
    }
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:4000`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one raw request line.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.writer, line)
    }

    /// Reads one response line; `None` on a closed connection.
    pub fn read_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Reads one line and parses it, expecting an `{"ok":true,...}`
    /// acknowledgement; returns the parsed object.
    fn expect_ack(&mut self) -> Result<Json, String> {
        let line = self
            .read_line()
            .map_err(|e| format!("read: {e}"))?
            .ok_or("server closed the connection")?;
        let v = Json::parse(&line).ok_or_else(|| format!("unparseable response: {line}"))?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            _ => Err(v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or(&line)
                .to_string()),
        }
    }

    /// Handshakes as `tenant`, checking protocol versions.
    pub fn hello(&mut self, tenant: &str) -> Result<(), String> {
        self.send_line(&format!(
            "{{\"cmd\":\"hello\",\"tenant\":\"{}\",\"protocol\":{SERVE_PROTOCOL_VERSION}}}",
            escape(tenant)
        ))
        .map_err(|e| format!("send: {e}"))?;
        self.expect_ack().map(|_| ())
    }

    /// Submits a job for `tenant`; returns the job id. Event lines
    /// stream on this connection next — consume them with
    /// [`Client::stream_until_done`].
    pub fn submit(
        &mut self,
        tenant: &str,
        priority: u32,
        spec: &JobSpec,
    ) -> Result<String, String> {
        self.send_line(&format!(
            "{{\"cmd\":\"submit\",\"tenant\":\"{}\",\"priority\":{},\"job\":{}}}",
            escape(tenant),
            priority,
            spec.to_json()
        ))
        .map_err(|e| format!("send: {e}"))?;
        let ack = self.expect_ack()?;
        ack.get("job")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("submit ack has no job id".into())
    }

    /// (Re-)attaches to `job`, replaying events with `seq >= from_seq`.
    pub fn attach(&mut self, job: &str, from_seq: u64) -> Result<(), String> {
        self.send_line(&format!(
            "{{\"cmd\":\"attach\",\"job\":\"{}\",\"from_seq\":{from_seq}}}",
            escape(job)
        ))
        .map_err(|e| format!("send: {e}"))?;
        self.expect_ack().map(|_| ())
    }

    /// Requests cancellation of `job`.
    pub fn cancel(&mut self, job: &str) -> Result<(), String> {
        self.send_line(&format!(
            "{{\"cmd\":\"cancel\",\"job\":\"{}\"}}",
            escape(job)
        ))
        .map_err(|e| format!("send: {e}"))?;
        self.expect_ack().map(|_| ())
    }

    /// Fetches the one-line daemon status (parsed).
    pub fn status(&mut self) -> Result<Json, String> {
        self.send_line("{\"cmd\":\"status\"}")
            .map_err(|e| format!("send: {e}"))?;
        self.expect_ack()
    }

    /// Asks the daemon to stop.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send_line("{\"cmd\":\"shutdown\"}")
            .map_err(|e| format!("send: {e}"))?;
        self.expect_ack().map(|_| ())
    }

    /// Consumes a job's stream until the `done` line: collects every
    /// intermediate line verbatim and returns them with the parsed
    /// terminal object.
    pub fn stream_until_done(&mut self) -> Result<JobOutcome, String> {
        let mut lines = Vec::new();
        loop {
            let line = self
                .read_line()
                .map_err(|e| format!("read: {e}"))?
                .ok_or("connection closed before the done line")?;
            if let Some(v) = Json::parse(&line) {
                if v.get("type").and_then(Json::as_str) == Some("done") {
                    return Ok(JobOutcome { lines, done: v });
                }
            }
            lines.push(line);
        }
    }
}
