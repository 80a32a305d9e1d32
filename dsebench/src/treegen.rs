//! Seeded generator of a repository-scale, cross-language RTL tree.
//!
//! The tree is what `explore --project` is for: VHDL packages with their
//! bodies in separate files, VHDL entities whose architectures live in
//! files of their own, and Verilog / SystemVerilog modules, joined by one
//! unbroken instantiation chain under a single top (`dse_top`) whose
//! `DEPTH` parameter is the explored axis.
//!
//! The chain's layout — how many stages, which language each is written
//! in, which VHDL entities carry a second architecture — is fixed, and
//! so is every unit's interface. The seed shapes everything else: which
//! package each entity uses, the packages' constants and functions, how
//! many registers and processes each body holds, every constant and the
//! size of every file. The simulated tool models a design from the
//! elaborated hierarchy's interfaces, so every seed yields the same
//! simulated answers (tool runs, simulated seconds, Pareto front) while
//! the host-side work of cataloging, shipping and parsing the tree varies
//! with the seed.

use std::fmt::Write as _;
use std::path::Path;

/// Files in a generated tree.
pub const TREE_FILES: usize = 60;
/// Approximate total source bytes of a generated tree.
pub const TREE_BYTES: usize = 150_000;
/// VHDL packages (each a declaration file plus a body file).
const PACKAGES: usize = 8;
/// The inferred top module.
pub const TOP: &str = "dse_top";
/// Seed of the fixed chain layout.
const LAYOUT_SEED: u64 = 0x1A_70E7;

/// Deterministic 64-bit generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One generated source file: repository-relative path and text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeFile {
    /// Path relative to the tree root (`rtl/vhdl/stg_03.vhd`).
    pub path: String,
    /// File contents.
    pub text: String,
}

#[derive(Clone, Copy, PartialEq)]
enum Lang {
    Vhdl,
    Verilog,
    SystemVerilog,
}

/// Generates the tree for `seed`: exactly [`TREE_FILES`] files of about
/// [`TREE_BYTES`] bytes in total, sorted by path.
pub fn generate(seed: u64) -> Vec<TreeFile> {
    let mut rng = Rng::new(seed);
    let budget = TREE_BYTES / TREE_FILES;
    let mut files = Vec::with_capacity(TREE_FILES);
    for p in 0..PACKAGES {
        let (decl, body) = package_files(p, &mut rng, budget);
        files.push(decl);
        files.push(body);
    }
    files.push(top_file());

    // Chain stages until the file budget is spent: a VHDL stage costs an
    // entity file plus one or two architecture files, a (System)Verilog
    // stage costs one module file. The layout comes from its own fixed
    // seed: the simulated design is the elaborated chain, so it must not
    // move with the run's seed.
    let mut layout = Rng::new(LAYOUT_SEED);
    let mut stages: Vec<(Lang, bool)> = Vec::new();
    let mut left = TREE_FILES - files.len();
    while left > 0 {
        let stage = match layout.range(0, 9) {
            0..=3 if left >= 2 => (Lang::Vhdl, left >= 3 && layout.range(0, 2) == 0),
            0..=6 => (Lang::Verilog, false),
            _ => (Lang::SystemVerilog, false),
        };
        left -= match stage {
            (Lang::Vhdl, true) => 3,
            (Lang::Vhdl, false) => 2,
            _ => 1,
        };
        stages.push(stage);
    }

    let n = stages.len();
    for (s, (lang, two_archs)) in stages.into_iter().enumerate() {
        let next = (s + 1 < n).then(|| stage_name(s + 1));
        match lang {
            Lang::Vhdl => {
                let pkg = rng.range(0, PACKAGES as u64 - 1) as usize;
                files.push(vhdl_entity(s, pkg, &mut rng, budget));
                files.push(vhdl_arch(s, "rtl", next.as_deref(), &mut rng, budget));
                if two_archs {
                    files.push(vhdl_arch(s, "alt", next.as_deref(), &mut rng, budget));
                }
            }
            Lang::Verilog | Lang::SystemVerilog => {
                files.push(verilog_module(
                    s,
                    lang == Lang::SystemVerilog,
                    next.as_deref(),
                    &mut rng,
                    budget,
                ));
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
}

/// Writes `files` under `root`, creating directories as needed.
pub fn write(files: &[TreeFile], root: &Path) -> std::io::Result<()> {
    for f in files {
        let path = root.join(&f.path);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &f.text)?;
    }
    Ok(())
}

fn stage_name(s: usize) -> String {
    format!("stg_{s:02}")
}

/// The fixed top: plain Verilog with the explored `DEPTH` parameter,
/// instantiating the first chain stage.
fn top_file() -> TreeFile {
    let text = format!(
        "// Generated project top: the only unit nothing instantiates.\n\
         module {TOP} #(\n\
         \x20   parameter DEPTH = 8\n\
         ) (\n\
         \x20   input  wire        clk,\n\
         \x20   input  wire        rst_n,\n\
         \x20   input  wire [31:0] data_i,\n\
         \x20   output wire [31:0] data_o\n\
         );\n\n\
         \x20 {first} #(\n\
         \x20     .DEPTH(DEPTH)\n\
         \x20 ) u_first (\n\
         \x20     .clk_i (clk),\n\
         \x20     .rst_ni(rst_n),\n\
         \x20     .d_i   (data_i),\n\
         \x20     .d_o   (data_o)\n\
         \x20 );\n\n\
         endmodule\n",
        first = stage_name(0)
    );
    TreeFile {
        path: format!("rtl/{TOP}.v"),
        text,
    }
}

fn package_files(p: usize, rng: &mut Rng, budget: usize) -> (TreeFile, TreeFile) {
    let name = format!("pkg_{p:02}");
    let mut decl = format!(
        "-- Shared declarations of {name}; function bodies live in {name}_body.vhd.\n\
         library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n\
         package {name} is\n"
    );
    let mut body = format!(
        "-- Deferred function bodies of {name}.\n\
         library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n\
         package body {name} is\n"
    );
    let target = jitter(rng, budget);
    let mut k = 0;
    while decl.len() < target || body.len() < target {
        let c = rng.range(1, 4096);
        let _ = writeln!(decl, "  constant C_{name}_{k} : natural := {c};");
        let _ = writeln!(
            decl,
            "  type t_{name}_{k} is array (0 to {}) of std_logic_vector(7 downto 0);",
            rng.range(1, 63)
        );
        let _ = writeln!(
            decl,
            "  function f_{name}_{k} (x : natural) return natural;"
        );
        let _ = write!(
            body,
            "\n  -- Scales an index by the table stride of entry {k}.\n\
             \x20 function f_{name}_{k} (x : natural) return natural is\n\
             \x20   variable acc : natural := 0;\n\
             \x20 begin\n\
             \x20   for i in 0 to {} loop\n\
             \x20     acc := acc + (x mod {});\n\
             \x20   end loop;\n\
             \x20   return acc + C_{name}_{k};\n\
             \x20 end function f_{name}_{k};\n",
            rng.range(1, 15),
            rng.range(2, 97)
        );
        k += 1;
    }
    decl.push_str(&format!("end package {name};\n"));
    body.push_str(&format!("end package body {name};\n"));
    (
        TreeFile {
            path: format!("pkg/{name}.vhd"),
            text: decl,
        },
        TreeFile {
            path: format!("pkg/{name}_body.vhd"),
            text: body,
        },
    )
}

fn vhdl_entity(s: usize, pkg: usize, rng: &mut Rng, budget: usize) -> TreeFile {
    let name = stage_name(s);
    // Entity files carry the stage's register map as a header comment.
    let target = jitter(rng, budget);
    let mut header = format!("-- Chain stage {s}: VHDL entity; architectures in separate files.\n");
    let mut k = 0;
    while header.len() + 700 < target {
        let _ = writeln!(
            header,
            "--   register {k:3}: offset 0x{:04x}, reset 0x{:08x}, {} access",
            rng.range(0, 0xffff),
            rng.next_u64() as u32,
            ["read-only", "read-write", "write-1-to-clear"][rng.range(0, 2) as usize]
        );
        k += 1;
    }
    let text = format!(
        "{header}\
         library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\
         use work.pkg_{pkg:02}.all;\n\n\
         entity {name} is\n\
         \x20 generic (\n\
         \x20   DEPTH : natural := 8\n\
         \x20 );\n\
         \x20 port (\n\
         \x20   clk_i  : in  std_logic;\n\
         \x20   rst_ni : in  std_logic;\n\
         \x20   d_i    : in  std_logic_vector(31 downto 0);\n\
         \x20   d_o    : out std_logic_vector(31 downto 0)\n\
         \x20 );\n\
         end entity {name};\n"
    );
    TreeFile {
        path: format!("rtl/vhdl/{name}.vhd"),
        text,
    }
}

fn vhdl_arch(s: usize, arch: &str, next: Option<&str>, rng: &mut Rng, budget: usize) -> TreeFile {
    let name = stage_name(s);
    let target = jitter(rng, budget);
    let regs = 4 + rng.range(0, 4) as usize;
    let mut decls = String::new();
    for r in 0..regs {
        let _ = writeln!(decls, "  signal r_{r} : std_logic_vector(31 downto 0);");
    }
    let mut body = String::new();
    let mut k = 0;
    while decls.len() + body.len() + 600 < target {
        let r = k % regs;
        let prev = if r == 0 {
            "d_i".to_string()
        } else {
            format!("r_{}", r - 1)
        };
        let _ = write!(
            body,
            "\n  -- Register slice {k} of the {arch} pipeline.\n\
             \x20 p_reg_{k} : process (clk_i)\n\
             \x20 begin\n\
             \x20   if rising_edge(clk_i) then\n\
             \x20     if rst_ni = '0' then\n\
             \x20       r_{r} <= (others => '0');\n\
             \x20     else\n\
             \x20       r_{r} <= std_logic_vector(unsigned({prev}) + to_unsigned({}, 32));\n\
             \x20     end if;\n\
             \x20   end if;\n\
             \x20 end process p_reg_{k};\n",
            rng.range(1, 1 << 16)
        );
        k += 1;
    }
    let last = format!("r_{}", regs - 1);
    let tail = match next {
        Some(next) => format!(
            "\n  u_next : entity work.{next}\n\
             \x20   generic map (\n\
             \x20     DEPTH => DEPTH\n\
             \x20   )\n\
             \x20   port map (\n\
             \x20     clk_i  => clk_i,\n\
             \x20     rst_ni => rst_ni,\n\
             \x20     d_i    => {last},\n\
             \x20     d_o    => d_o\n\
             \x20   );\n"
        ),
        None => format!("\n  d_o <= {last};\n"),
    };
    let text = format!(
        "-- Architecture `{arch}` of chain stage {s}.\n\
         architecture {arch} of {name} is\n{decls}begin\n{body}{tail}end architecture {arch};\n"
    );
    TreeFile {
        path: format!("rtl/vhdl/{name}_{arch}.vhd"),
        text,
    }
}

fn verilog_module(
    s: usize,
    sv: bool,
    next: Option<&str>,
    rng: &mut Rng,
    budget: usize,
) -> TreeFile {
    let name = stage_name(s);
    let target = jitter(rng, budget);
    let (net, ff) = if sv {
        ("logic", "always_ff @(posedge clk_i)")
    } else {
        ("reg  ", "always @(posedge clk_i)")
    };
    let regs = 4 + rng.range(0, 4) as usize;
    let mut text = format!(
        "// Chain stage {s}: {} module.\n\
         module {name} #(\n\
         \x20   parameter DEPTH = {}\n\
         ) (\n\
         \x20   input  wire        clk_i,\n\
         \x20   input  wire        rst_ni,\n\
         \x20   input  wire [31:0] d_i,\n\
         \x20   output wire [31:0] d_o\n\
         );\n\n",
        if sv { "SystemVerilog" } else { "Verilog" },
        1 << rng.range(1, 6)
    );
    for r in 0..regs {
        let _ = writeln!(text, "  {net} [31:0] r_{r};");
    }
    let mut k = 0;
    while text.len() + 400 < target {
        let r = k % regs;
        let prev = if r == 0 {
            "d_i".to_string()
        } else {
            format!("r_{}", r - 1)
        };
        let _ = write!(
            text,
            "\n  // Register slice {k}.\n\
             \x20 {ff} begin\n\
             \x20   if (!rst_ni) begin\n\
             \x20     r_{r} <= 32'd0;\n\
             \x20   end else begin\n\
             \x20     r_{r} <= {prev} + 32'd{};\n\
             \x20   end\n\
             \x20 end\n",
            rng.range(1, 1 << 16)
        );
        k += 1;
    }
    let last = format!("r_{}", regs - 1);
    match next {
        Some(next) => {
            let _ = write!(
                text,
                "\n  {next} #(\n\
                 \x20     .DEPTH(DEPTH)\n\
                 \x20 ) u_next (\n\
                 \x20     .clk_i (clk_i),\n\
                 \x20     .rst_ni(rst_ni),\n\
                 \x20     .d_i   ({last}),\n\
                 \x20     .d_o   (d_o)\n\
                 \x20 );\n"
            );
        }
        None => {
            let _ = writeln!(text, "\n  assign d_o = {last};");
        }
    }
    text.push_str("\nendmodule\n");
    let (dir, ext) = if sv { ("sv", "sv") } else { ("verilog", "v") };
    TreeFile {
        path: format!("rtl/{dir}/{name}.{ext}"),
        text,
    }
}

/// A per-file byte target within ±20 % of `budget`.
fn jitter(rng: &mut Rng, budget: usize) -> usize {
    let spread = (budget / 5) as u64;
    budget - spread as usize + rng.range(0, 2 * spread) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use dovado_hdl::{CatalogSource, Language, SourceCatalog};

    fn catalog(files: &[TreeFile]) -> SourceCatalog {
        let sources = files
            .iter()
            .map(|f| {
                let ext = f.path.rsplit('.').next().unwrap();
                CatalogSource::new(
                    f.path.clone(),
                    Language::from_extension(ext).unwrap(),
                    f.text.clone(),
                )
            })
            .collect();
        SourceCatalog::from_sources(sources).expect("generated tree catalogs")
    }

    #[test]
    fn same_seed_same_bytes() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn tree_has_the_promised_shape() {
        for seed in 0..20 {
            let files = generate(seed);
            assert_eq!(files.len(), TREE_FILES, "seed {seed}");
            let bytes: usize = files.iter().map(|f| f.text.len()).sum();
            assert!(
                bytes.abs_diff(TREE_BYTES) < TREE_BYTES / 10,
                "seed {seed}: {bytes} bytes"
            );
            for ext in [".vhd", ".v", ".sv"] {
                assert!(files.iter().any(|f| f.path.ends_with(ext)), "{ext}");
            }
            assert!(files.iter().any(|f| f.path.ends_with("_alt.vhd")));
        }
    }

    #[test]
    fn catalog_infers_exactly_one_top() {
        for seed in 0..20 {
            let cat = catalog(&generate(seed));
            assert_eq!(cat.infer_top().unwrap(), TOP, "seed {seed}");
            assert_eq!(cat.compile_order().count(), TREE_FILES);
        }
    }

    #[test]
    fn seeds_share_the_simulated_design() {
        let evaluate = |seed: u64| {
            let cat = catalog(&generate(seed));
            let sources = cat
                .compile_order()
                .map(|f| dovado::HdlSource::new(f.path.clone(), f.language, f.text.clone()))
                .collect();
            let space = dovado::ParameterSpace::new().with("DEPTH", dovado::Domain::range(2, 64));
            let tool = dovado::Dovado::new(sources, TOP, space, dovado::EvalConfig::default())
                .expect("tree elaborates");
            let point = dovado::DesignPoint::from_pairs(&[("DEPTH", 8)]);
            tool.evaluate_point(&point).expect("tool run")
        };
        assert_eq!(evaluate(1), evaluate(2));
    }
}
