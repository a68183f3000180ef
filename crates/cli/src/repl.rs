//! Command parsing for the interactive shell.

/// Shell commands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Evaluate a query (the default for `//…` input).
    Eval(String),
    /// Show the plan only.
    Explain(String),
    /// Refine with the recorded workload at the given minSup.
    Tune(f64),
    /// Show the recorded workload window.
    Workload,
    /// Show index statistics.
    Stats,
    /// Show the session buffer pool's state.
    Buffer,
    /// Show required paths.
    Required,
    /// Show the label alphabet.
    Labels,
    /// Persist the index.
    Save(String),
    /// Restore the index.
    Load(String),
    /// Serve n queries replayed from the recorded workload through the
    /// serving engine (snapshot cell + background refresher).
    Serve(usize),
    /// Show help.
    Help,
    /// Exit.
    Quit,
}

/// Parse failures.
#[derive(Debug, PartialEq, Eq)]
pub enum ReplError {
    /// Blank input.
    Empty,
    /// Unrecognized command word.
    Unknown(String),
}

/// Shell help text.
pub const HELP: &str = "\
  //a/b  //a//b  //a/b[text() = \"v\"]   evaluate a query
  explain <query>                        show the plan without executing
  tune <minSup>                          refine with the recorded workload
  workload | stats | required | labels   inspect state
  buffer                                 cross-query buffer-pool state
  save <path> | load <path>              persist / restore the index
  serve [n]                              replay the recorded workload (n
                                         queries, default 200) through the
                                         serving engine `listen` uses:
                                         snapshot swaps happen in a
                                         background refresher while queries
                                         answer, and the replay reads
                                         through the engine's own buffer
                                         pool, not the session's `buffer`
                                         (alias: adapt; see --refresh-every)
  help | quit";

/// Parses one input line.
pub fn parse_command(line: &str) -> Result<Command, ReplError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(ReplError::Empty);
    }
    if line.starts_with("//") {
        return Ok(Command::Eval(line.to_string()));
    }
    let (word, rest) = match line.split_once(char::is_whitespace) {
        Some((w, r)) => (w, r.trim()),
        None => (line, ""),
    };
    match word {
        "quit" | "exit" | "q" => Ok(Command::Quit),
        "help" | "?" => Ok(Command::Help),
        "stats" => Ok(Command::Stats),
        "buffer" => Ok(Command::Buffer),
        "required" => Ok(Command::Required),
        "labels" => Ok(Command::Labels),
        "workload" => Ok(Command::Workload),
        "explain" if !rest.is_empty() => Ok(Command::Explain(rest.to_string())),
        "tune" => rest
            .parse::<f64>()
            .map(Command::Tune)
            .map_err(|_| ReplError::Unknown(format!("tune {rest}"))),
        "save" if !rest.is_empty() => Ok(Command::Save(rest.to_string())),
        "load" if !rest.is_empty() => Ok(Command::Load(rest.to_string())),
        "serve" | "adapt" => {
            if rest.is_empty() {
                Ok(Command::Serve(200))
            } else {
                rest.parse::<usize>()
                    .map(Command::Serve)
                    .map_err(|_| ReplError::Unknown(format!("{word} {rest}")))
            }
        }
        other => Err(ReplError::Unknown(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_pass_through() {
        assert_eq!(
            parse_command("//actor/name\n"),
            Ok(Command::Eval("//actor/name".into()))
        );
    }

    #[test]
    fn words_parse() {
        assert_eq!(parse_command("stats"), Ok(Command::Stats));
        assert_eq!(parse_command("buffer"), Ok(Command::Buffer));
        assert_eq!(parse_command("tune 0.005"), Ok(Command::Tune(0.005)));
        assert_eq!(
            parse_command("explain //a//b"),
            Ok(Command::Explain("//a//b".into()))
        );
        assert_eq!(
            parse_command("save /tmp/x.idx"),
            Ok(Command::Save("/tmp/x.idx".into()))
        );
        assert_eq!(parse_command("quit"), Ok(Command::Quit));
        assert_eq!(parse_command("serve"), Ok(Command::Serve(200)));
        assert_eq!(parse_command("serve 500"), Ok(Command::Serve(500)));
        assert_eq!(parse_command("adapt 50"), Ok(Command::Serve(50)));
        assert!(matches!(
            parse_command("serve lots"),
            Err(ReplError::Unknown(_))
        ));
    }

    #[test]
    fn errors() {
        assert_eq!(parse_command("   "), Err(ReplError::Empty));
        assert!(matches!(
            parse_command("frobnicate"),
            Err(ReplError::Unknown(_))
        ));
        assert!(matches!(
            parse_command("tune abc"),
            Err(ReplError::Unknown(_))
        ));
    }
}
