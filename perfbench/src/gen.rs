//! Seeded input generators and their independent output oracles.
//!
//! Every workload's inputs come from one `--seed`; the same seed gives
//! byte-identical inputs. Sizes are fixed and only the content varies
//! with the seed, so run-to-run spread across seeds stays small. Each
//! generator also computes, in Rust and without the shell, the exact
//! bytes a correct shell must print.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// SplitMix64: small, fast, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `salt` so each workload
    /// draws from its own stream.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// es reserved words of three or more letters; a generated word must
/// never read as one.
const RESERVED: &[&str] = &["for", "let", "local"];

/// `n` distinct lowercase words with lengths in `lens`. Letters only
/// and never a reserved word, so no word is special to es, to glob
/// patterns, or to `tr`.
pub fn vocabulary(rng: &mut Rng, n: usize, lens: RangeInclusive<usize>) -> Vec<String> {
    let mut seen: std::collections::BTreeSet<String> =
        RESERVED.iter().map(|w| w.to_string()).collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = lens.start() + rng.below(lens.end() - lens.start() + 1);
        let w: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        if seen.insert(w.clone()) {
            out.push(w);
        }
    }
    out
}

// ---- fig1 -------------------------------------------------------------------

/// Words in the Figure 1 corpus.
pub const FIG1_WORDS: usize = 2000;
/// Distinct words the corpus draws from.
const FIG1_VOCAB: usize = 160;

/// The Figure 1 pipeline, profiled by the paper's `%pipe` spoof.
pub const FIG1_PIPELINE: &str =
    "cat paper9 | tr -cs a-zA-Z0-9 '\\012' | sort | uniq -c | sort -nr | sed 6q";

/// The paper's Figure 1 `%pipe` timing spoof.
pub const FIG1_SPOOF: &str = "
let (pipe = $fn-%pipe) {
    fn %pipe first out in rest {
        if {~ $#out 0} {
            time $first
        } {
            $pipe {time $first} $out $in {%pipe $rest}
        }
    }
}";

/// The Figure 1 input and the pipeline's expected standard output.
pub struct Fig1 {
    /// The corpus, ten words to a line.
    pub corpus: String,
    /// The top six `uniq -c` lines, most frequent first.
    pub expected: String,
}

/// A corpus of [`FIG1_WORDS`] five-letter words with Zipf-like
/// frequencies (word of rank `r` drawn with weight `1/(r+1)`), so the
/// top six are the ones a word-frequency profile is about. Every seed's
/// corpus has the same length, so the pipes carry the same bytes.
pub fn fig1(seed: u64) -> Fig1 {
    let mut rng = Rng::new(seed, 1);
    let vocab = vocabulary(&mut rng, FIG1_VOCAB, 5..=5);
    // Integer weights keep the draw exact on every platform.
    let weights: Vec<u64> = (0..FIG1_VOCAB as u64).map(|r| 720_720 / (r + 1)).collect();
    let total: u64 = weights.iter().sum();
    let mut corpus = String::new();
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for i in 0..FIG1_WORDS {
        let mut x = rng.next_u64() % total;
        let mut k = 0;
        while x >= weights[k] {
            x -= weights[k];
            k += 1;
        }
        corpus.push_str(&vocab[k]);
        corpus.push(if i % 10 == 9 { '\n' } else { ' ' });
        *counts.entry(&vocab[k]).or_default() += 1;
    }
    // `sort -nr` over `uniq -c` lines: count descending, then (GNU's
    // last-resort whole-line comparison, also reversed) word descending.
    let mut ranked: Vec<(u64, &str)> = counts.into_iter().map(|(w, c)| (c, w)).collect();
    ranked.sort_by(|a, b| b.cmp(a));
    let expected = ranked
        .iter()
        .take(6)
        .map(|(c, w)| format!("{c:7} {w}\n"))
        .collect();
    Fig1 { corpus, expected }
}

// ---- interp -----------------------------------------------------------------

/// Cells in the closure-encoded list `interp` builds and walks.
const INTERP_CELLS: usize = 60;
/// Length of the list `len` measures by non-tail recursion: deep
/// enough to recurse for real, well under the default depth-150 guard.
const INTERP_DEPTH: usize = 32;
/// Cells the walk's filter keeps.
const INTERP_MATCHES: usize = 12;

/// The builtin-only script and its expected standard output.
pub struct Interp {
    /// One op: define the helpers, build, walk, recurse, throw.
    pub script: String,
    /// What `echo` must print.
    pub expected: String,
}

/// A script with zero external commands that exercises closures,
/// `let`/`local`, `for`, `while`, a settor, `catch`/`throw`, `<>{}`
/// rich returns, and cons/car/cdr lists long enough that the heap
/// collects during every op.
pub fn interp(seed: u64) -> Interp {
    let mut rng = Rng::new(seed, 2);
    // Exactly INTERP_MATCHES cells start with the filter's letter `q`,
    // so every seed does the same amount of work.
    let letter = "q";
    let vocab = vocabulary(&mut rng, 64, 3..=8);
    let mut cells: Vec<String> = (0..INTERP_CELLS)
        .map(|_| {
            let w = &vocab[rng.below(vocab.len())];
            if w.starts_with(letter) {
                format!("z{}", &w[1..])
            } else {
                w.clone()
            }
        })
        .collect();
    for k in 0..INTERP_MATCHES {
        let w = &vocab[rng.below(vocab.len())];
        cells[k * (INTERP_CELLS / INTERP_MATCHES)] = format!("{letter}{}", &w[1..]);
    }
    let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
    let tag = &vocab[rng.below(vocab.len())];
    let thrown = &vocab[rng.below(vocab.len())];
    let script = format!(
        "fn cons a d {{ return @ f {{ $f $a $d }} }}
fn car p {{ $p @ a d {{ return $a }} }}
fn cdr p {{ $p @ a d {{ return $d }} }}
fn len p {{ if {{~ $#p 0}} {{ return }} {{ return x <>{{len <>{{cdr $p}}}} }} }}
fn mk-tagger tag {{ return @ x {{ return $tag^-^$x }} }}
set-tally = @ {{ ticks = $ticks t; return $* }}
ticks =
lst =
for (w = {cells}) {{ lst = <>{{cons $w $lst}}; tally = $w }}
out =
let (p = $lst; tg = <>{{mk-tagger {tag}}}) {{
    while {{~ $#p 1}} {{
        local (x = <>{{car $p}}) {{
            if {{~ $x {letter}*}} {{ out = $out <>{{$tg $x}} }}
        }}
        p = <>{{cdr $p}}
    }}
}}
short =
for (w = {short}) {{ short = <>{{cons $w $short}} }}
n = <>{{len $short}}
echo $#ticks $#out $out $#n
r = <>{{catch @ e v {{ return caught $v }} {{ throw bench {thrown} }}}}
echo $r $tally
",
        cells = cells.join(" "),
        short = cells[..INTERP_DEPTH].join(" "),
    );
    // The walk starts at the last cell consed, so matches come out in
    // reverse input order.
    let matches: Vec<String> = cells
        .iter()
        .rev()
        .filter(|w| w.starts_with(letter))
        .map(|w| format!("{tag}-{w}"))
        .collect();
    let mut line1 = vec![INTERP_CELLS.to_string(), matches.len().to_string()];
    line1.extend(matches);
    line1.push(INTERP_DEPTH.to_string());
    let expected = format!(
        "{}\ncaught {thrown} {}\n",
        line1.join(" "),
        cells[INTERP_CELLS - 1]
    );
    Interp { script, expected }
}

// ---- boot -------------------------------------------------------------------

/// Plain functions the parent defines (`f00`...).
const BOOT_PLAIN: usize = 36;
/// Functions closed over a `let` binding (`g00`...), which travel as
/// `%closure(...)` strings.
const BOOT_CLOSED: usize = 14;
/// Total inherited functions.
pub const BOOT_FUNCTIONS: usize = BOOT_PLAIN + BOOT_CLOSED;
/// Plain list variables the parent defines (`v00`...).
const BOOT_VARS: usize = 10;

/// The parent's definitions and each inherited function's behaviour.
pub struct Boot {
    /// Script the parent shell runs before exporting its environment.
    pub parent: String,
    /// Per function: its name and the words it prints before and
    /// after its argument.
    pub functions: Vec<(String, String, String)>,
    /// Argument words the calls cycle through.
    pub args: Vec<String>,
}

impl Boot {
    /// The call op `i` makes in its freshly booted child.
    pub fn call(&self, i: u64) -> String {
        let (name, _, _) = &self.functions[(i as usize * 7) % self.functions.len()];
        format!("{name} {}", self.args[i as usize % self.args.len()])
    }

    /// What that call must print.
    pub fn expected(&self, i: u64) -> String {
        let (_, before, after) = &self.functions[(i as usize * 7) % self.functions.len()];
        let arg = &self.args[i as usize % self.args.len()];
        let words: Vec<&str> = [before.as_str(), arg, after.as_str()]
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        format!("{}\n", words.join(" "))
    }
}

/// About fifty functions and ten variables for a parent shell to
/// export: every child boot parses `initial.es` and then imports
/// (parses and evaluates) each of them.
pub fn boot(seed: u64) -> Boot {
    let mut rng = Rng::new(seed, 3);
    let vocab = vocabulary(&mut rng, 48, 3..=8);
    let pick = |rng: &mut Rng| vocab[rng.below(vocab.len())].clone();
    let mut parent = String::new();
    let mut functions = Vec::new();
    for i in 0..BOOT_PLAIN {
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        parent.push_str(&format!("fn f{i:02} x {{ echo f{i:02} $x {a} {b} }}\n"));
        functions.push((format!("f{i:02}"), format!("f{i:02}"), format!("{a} {b}")));
    }
    for i in 0..BOOT_CLOSED {
        let k = pick(&mut rng);
        parent.push_str(&format!(
            "let (k{i:02} = {k}) {{ fn g{i:02} x {{ echo $k{i:02} $x }} }}\n"
        ));
        functions.push((format!("g{i:02}"), k, String::new()));
    }
    for i in 0..BOOT_VARS {
        let words: Vec<String> = (0..4).map(|_| pick(&mut rng)).collect();
        parent.push_str(&format!("v{i:02} = {}\n", words.join(" ")));
    }
    let args = (0..16).map(|_| pick(&mut rng)).collect();
    Boot {
        parent,
        functions,
        args,
    }
}

// ---- serve ------------------------------------------------------------------

/// One served command and the exact stdout it must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cmd {
    /// The command line.
    pub line: String,
    /// Its expected standard output.
    pub expected: String,
}

/// An endless, seeded stream of short sessions (4 to 6 commands each)
/// mixing writes (`>`/`>>` into `/tmp`) with reads (`cat`, `wc -l`,
/// variable subscripts). Every session starts with a write, and reads
/// only name files the same session wrote, so no command can fail.
pub struct Sessions {
    rng: Rng,
    vocab: Vec<String>,
}

impl Sessions {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Sessions {
        let mut rng = Rng::new(seed, 4);
        let vocab = vocabulary(&mut rng, 32, 3..=8);
        Sessions { rng, vocab }
    }

    fn word(&mut self) -> String {
        self.vocab[self.rng.below(self.vocab.len())].clone()
    }

    /// The next session's commands.
    pub fn next_session(&mut self) -> Vec<Cmd> {
        let n = 4 + self.rng.below(3);
        // The recycled kernel starts every session with an empty /tmp.
        let mut files: BTreeMap<String, String> = BTreeMap::new();
        let mut cmds = Vec::with_capacity(n);
        for k in 0..n {
            let roll = if k == 0 { 0 } else { self.rng.below(10) };
            let existing: Vec<String> = files.keys().cloned().collect();
            let some_file = |rng: &mut Rng| existing[rng.below(existing.len())].clone();
            let cmd = match roll {
                // Write a new or existing file.
                0..=1 => {
                    let (f, w) = (self.word(), self.word());
                    files.insert(f.clone(), format!("{w}\n"));
                    Cmd {
                        line: format!("echo {w} > /tmp/{f}"),
                        expected: String::new(),
                    }
                }
                // Append to a file this session wrote.
                2 => {
                    let (f, w) = (some_file(&mut self.rng), self.word());
                    files
                        .get_mut(&f)
                        .expect("file exists")
                        .push_str(&format!("{w}\n"));
                    Cmd {
                        line: format!("echo {w} >> /tmp/{f}"),
                        expected: String::new(),
                    }
                }
                3..=4 => {
                    let f = some_file(&mut self.rng);
                    Cmd {
                        line: format!("cat /tmp/{f}"),
                        expected: files[&f].clone(),
                    }
                }
                5..=6 => {
                    let f = some_file(&mut self.rng);
                    Cmd {
                        line: format!("cat /tmp/{f} | wc -l"),
                        expected: format!("{}\n", files[&f].lines().count()),
                    }
                }
                7 => {
                    let w = self.word();
                    Cmd {
                        line: format!("echo {w} | wc -l"),
                        expected: "1\n".to_string(),
                    }
                }
                _ => {
                    let xs: Vec<String> = (0..4).map(|_| self.word()).collect();
                    let i = 1 + self.rng.below(4);
                    Cmd {
                        line: format!("x = {}; echo $x({i})", xs.join(" ")),
                        expected: format!("{}\n", xs[i - 1]),
                    }
                }
            };
            cmds.push(cmd);
        }
        cmds
    }
}
