//! The client side of the wire: a spawned `cr-serve --listen` process and
//! one closed-loop connection to it.

use cr_service::wire;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a drained server may take to exit before it is killed.
const EXIT_WAIT: Duration = Duration::from_secs(10);

/// A running `cr-serve --listen 127.0.0.1:0` child process.
pub struct Server {
    child: Child,
    /// The address the server printed in its `listening` line.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits for its `listening` line.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            return Err(kill_with(&mut child, "cr-serve has no stdout"));
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .split('"')
            .nth(3)
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match addr {
            Some(addr) if line.starts_with(r#"{"listening":"#) => Ok(Server { child, addr }),
            _ => Err(kill_with(
                &mut child,
                &format!("unexpected first line {line:?}"),
            )),
        }
    }

    /// Drains the server through `conn` and waits for the process to exit
    /// cleanly.
    pub fn shutdown(mut self, mut conn: Conn) -> io::Result<()> {
        conn.send_raw("{\"control\":\"shutdown\"}\n")?;
        let ack = conn.read_line()?;
        drop(conn);
        if !ack.contains("\"draining\":true") {
            return Err(kill_with(
                &mut self.child,
                &format!("bad shutdown ack {ack:?}"),
            ));
        }
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("cr-serve exited with {status}")))
                };
            }
            if start.elapsed() > EXIT_WAIT {
                return Err(kill_with(
                    &mut self.child,
                    "cr-serve did not exit after drain",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path before `shutdown`: never leave a
        // server running behind the benchmark.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Kills `child`, reaps it, and returns an error carrying `message`.
fn kill_with(child: &mut Child, message: &str) -> io::Error {
    let _ = child.kill();
    let _ = child.wait();
    io::Error::other(message.to_string())
}

/// One client connection, used as a closed loop: a flush is sent only
/// after every response of the previous one arrived.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Response bytes read so far (newlines included).
    pub bytes_in: u64,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(150)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            bytes_in: 0,
        })
    }

    fn send_raw(&mut self, text: &str) -> io::Result<()> {
        self.writer.write_all(text.as_bytes())?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.bytes_in += n as u64;
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
    }

    /// Sends one flush (the lines plus a blank line) and returns one
    /// single-line response per request, streamed responses reassembled.
    pub fn flush(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 1);
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        text.push('\n');
        self.send_raw(&text)?;
        let mut responses = Vec::with_capacity(lines.len());
        while responses.len() < lines.len() {
            let line = self.read_line()?;
            if line.ends_with(r#""frame":"head"}"#) {
                let mut frames = vec![line];
                while !frames[frames.len() - 1].contains(r#""frame":"end""#) {
                    frames.push(self.read_line()?);
                }
                responses.push(wire::assemble_streamed(&frames).map_err(io::Error::other)?);
            } else {
                responses.push(line);
            }
        }
        Ok(responses)
    }

    /// Sends a `{"control":"stats"}` frame and returns its one-line answer.
    pub fn stats(&mut self) -> io::Result<String> {
        self.send_raw("{\"control\":\"stats\"}\n")?;
        self.read_line()
    }

    /// Sends a `{"control":"metrics"}` frame and returns the metric and
    /// span lines after its header.
    pub fn metrics(&mut self) -> io::Result<Vec<String>> {
        self.send_raw("{\"control\":\"metrics\"}\n")?;
        let head = self.read_line()?;
        let count = |key: &str| -> io::Result<usize> {
            head.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| io::Error::other(format!("bad metrics header {head:?}")))
        };
        let lines = count("metrics")? + count("spans")?;
        (0..lines).map(|_| self.read_line()).collect()
    }
}
