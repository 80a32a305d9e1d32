//! HDL front-end throughput: lexing + declaration parsing of the three
//! case-study sources (one per language), and what the parse cache saves
//! a tool session that re-reads a project tree.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dovado::backend::{SimBackend, ToolBackend};
use dovado::casestudies::{self, corundum, cv32e40p, neorv32};
use dovado::frames::{read_sources_script, SourceEntry};
use dovado::HdlSource;
use dovado_hdl::{parse_source, Language};

fn bench_parsing(c: &mut Criterion) {
    let cases = [
        (
            "systemverilog_fifo",
            Language::SystemVerilog,
            cv32e40p::FIFO_SV,
        ),
        (
            "verilog_queue_manager",
            Language::Verilog,
            corundum::CPL_QUEUE_MANAGER_V,
        ),
        ("vhdl_neorv32_top", Language::Vhdl, neorv32::NEORV32_TOP_VHD),
    ];
    let mut group = c.benchmark_group("hdl_parsing");
    for (name, lang, src) in cases {
        group.throughput(Throughput::Bytes(src.len() as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                let (file, diags) = parse_source(lang, black_box(src)).unwrap();
                assert!(!diags.has_errors());
                black_box(file.modules.len())
            })
        });
    }
    group.finish();

    // A large synthetic file: 100 modules.
    let big: String = (0..100)
        .map(|i| {
            format!(
                "module m{i} #(parameter W = {i} + 1)(input wire clk, \
                 input wire [W-1:0] d, output reg [W-1:0] q);\n\
                 always @(posedge clk) q <= d;\nendmodule\n"
            )
        })
        .collect();
    let mut group = c.benchmark_group("hdl_parsing_large");
    group.throughput(Throughput::Bytes(big.len() as u64));
    group.bench_function("verilog_100_modules", |b| {
        b.iter(|| {
            let (file, _) = parse_source(Language::Verilog, black_box(&big)).unwrap();
            assert_eq!(file.modules.len(), 100);
        })
    });
    group.finish();
}

/// One tool session reading a source set: cold on a fresh backend (every
/// file parsed), warm on a backend whose earlier session already read
/// the same texts. The four case-study sources are all long enough to be
/// stored, so their warm reads are cache hits; the `--project` fixture
/// tree's files are all shorter than `MIN_STORED_LEN`, so warm reads
/// parse them again and the two cases should match.
fn bench_session_reads(c: &mut Criterion) {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/project_tree"
    );
    let sets: [(&str, Vec<HdlSource>); 2] = [
        (
            "case_studies",
            casestudies::all()
                .into_iter()
                .flat_map(|cs| cs.sources)
                .collect(),
        ),
        (
            "project_tree",
            dovado::flow::load_project_tree(std::path::Path::new(fixture), None)
                .unwrap()
                .0,
        ),
    ];
    let mut group = c.benchmark_group("hdl_session_reads");
    for (name, sources) in &sets {
        let entries: Vec<SourceEntry> = sources
            .iter()
            .map(|s| SourceEntry {
                path: format!("src/{}", s.name),
                language: s.language,
                library: s.library.clone(),
                has_packages: false,
            })
            .collect();
        let script = format!(
            "create_project p -part xc7k70tfbv676-1\n{}",
            read_sources_script(&entries)
        );
        let read_all = |backend: &SimBackend| {
            let mut session = backend.open_session();
            for (src, entry) in sources.iter().zip(&entries) {
                session.write_file(&entry.path, src.content.clone());
            }
            session.eval(black_box(&script)).unwrap();
            black_box(session.elapsed_s())
        };
        let bytes: usize = sources.iter().map(|s| s.content.len()).sum();
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_function(&format!("{name}_cold"), |b| {
            b.iter(|| read_all(&SimBackend::new(1)))
        });
        let warm = SimBackend::new(1);
        read_all(&warm);
        group.bench_function(&format!("{name}_warm"), |b| b.iter(|| read_all(&warm)));
    }
    group.finish();
}

criterion_group!(benches, bench_parsing, bench_session_reads);
criterion_main!(benches);
