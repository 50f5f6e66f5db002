//! The benchmark × engine × bounds-strategy matrix that the paper's
//! Fig. 1, Fig. 2a and §4.4 all read, and those three views of it.
//! `quickperf engines` times each benchmark's [`cells`] in one
//! `lb_harness::stats::interleave` call; nothing here measures.

use crate::record::Row;
use lb_core::BoundsStrategy;
use lb_harness::stats::{geomean_ratios, paired, Estimate};
use lb_harness::{EngineSel, Table};

/// One arm: an engine under a bounds strategy (unused by native).
pub type Cell = (EngineSel, BoundsStrategy);

/// One Fig. 2a cell: a suite, an arm, and the geomean over the suite's
/// benchmarks of that arm's ratios to native.
pub type SuiteMean = (&'static str, Cell, f64);

/// `wavm/mprotect`, or `native`.
pub fn name((engine, strategy): Cell) -> String {
    match engine {
        EngineSel::Native => "native".into(),
        _ => format!("{}/{}", engine.name(), strategy.name()),
    }
}

/// One benchmark's arms, in order: native; wavm, wasmtime and v8 under
/// each of `strategies`; interp under trap only (the paper leaves Wasm3
/// on its built-in checks); native again, as the A/A control.
pub fn cells(strategies: &[BoundsStrategy]) -> Vec<Cell> {
    let native = (EngineSel::Native, BoundsStrategy::None);
    let jits = [EngineSel::Wavm, EngineSel::Wasmtime, EngineSel::V8];
    let jits = jits
        .into_iter()
        .flat_map(|e| strategies.iter().map(move |&s| (e, s)));
    let interp = (EngineSel::Interp, BoundsStrategy::Trap);
    [native]
        .into_iter()
        .chain(jits)
        .chain([interp, native])
        .collect()
}

/// One benchmark's row of the matrix.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Benchmark name.
    pub name: String,
    /// Its suite.
    pub suite: &'static str,
    /// Per cell, its ratio to native; the last is the A/A control.
    pub est: Vec<Estimate>,
    /// Fig. 1: per v8 strategy, its ratio to v8/none.
    pub fig1: Vec<(BoundsStrategy, Estimate)>,
}

impl Measured {
    /// Estimates from `samples[cell][round]`, as `interleave` returns
    /// them. Fig. 1 is `paired` on the v8 cells' samples, v8/none first.
    ///
    /// # Panics
    /// Unless there is one sample stream per cell and v8/none is a cell.
    pub fn new(name: &str, suite: &'static str, cells: &[Cell], samples: &[Vec<f64>]) -> Measured {
        assert_eq!(cells.len(), samples.len(), "one sample stream per cell");
        let mut v8: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].0 == EngineSel::V8)
            .collect();
        let none = v8.iter().position(|&i| cells[i].1 == BoundsStrategy::None);
        v8.swap(0, none.expect("v8/none is Fig. 1's baseline"));
        let v8_samples: Vec<Vec<f64>> = v8.iter().map(|&i| samples[i].clone()).collect();
        let fig1 = v8
            .iter()
            .map(|&i| cells[i].1)
            .zip(paired(&v8_samples))
            .collect();
        Measured {
            name: name.into(),
            suite,
            est: paired(samples),
            fig1,
        }
    }

    /// The record row: every cell against native with the A/A control
    /// (`names` labels all but the A/A cell), then Fig. 1's ratios.
    pub fn row(&self, names: &[&str]) -> Row {
        let row = Row::new(&self.name)
            .text("suite", self.suite)
            .ab(names, &self.est);
        let fig1 = |row: Row, (s, e): &(BoundsStrategy, Estimate)| {
            row.field(&format!("fig1_{}", s.name()), format!("{:.4}", e.ratio))
        };
        self.fig1.iter().fold(row, fig1)
    }
}

/// Fig. 2a: per suite, the geomean of each arm's ratios to native, for
/// every cell but native and the A/A control.
pub fn fig2a(cells: &[Cell], measured: &[Measured]) -> Vec<SuiteMean> {
    let mut means = Vec::new();
    for (i, &cell) in cells.iter().enumerate().take(cells.len() - 1).skip(1) {
        for suite in ["polybench", "spec"] {
            let rows = measured.iter().filter(|m| m.suite == suite);
            let ratios: Vec<f64> = rows.map(|m| m.est[i].ratio).collect();
            if !ratios.is_empty() {
                means.push((suite, cell, geomean_ratios(&ratios)));
            }
        }
    }
    means
}

/// §4.4: `[claim, paper, this reproduction]` from the Fig. 2a geomeans,
/// the JITs under mprotect, their production strategy, and interp under
/// trap.
pub fn replication(means: &[SuiteMean]) -> Vec<[String; 3]> {
    let geo = |suite: &str, engine| {
        let strategy = match engine {
            EngineSel::Interp => BoundsStrategy::Trap,
            _ => BoundsStrategy::Mprotect,
        };
        let mean = means
            .iter()
            .find(|m| (m.0, m.1) == (suite, (engine, strategy)));
        mean.map(|m| m.2)
    };
    let mut lines = Vec::new();
    let mut claim = |c: &str, p: &str, ours: String| lines.push([c.into(), p.into(), ours]);
    let poly = |engine| geo("polybench", engine);
    let engines = [
        EngineSel::Wavm,
        EngineSel::Wasmtime,
        EngineSel::V8,
        EngineSel::Interp,
    ];
    if let [Some(wavm), Some(wasmtime), Some(v8), Some(interp)] = engines.map(poly) {
        claim(
            "Wasm3 vs V8-TurboFan (PolyBench)",
            "6x-11x slower",
            format!("{:.1}x slower", interp / v8),
        );
        claim(
            "V8 vs native (PolyBench)",
            "most within 2x (Rossberg'17)",
            format!("{v8:.2}x geomean"),
        );
        claim(
            "WAVM vs native (PolyBench)",
            "1.08x-1.2x geomean",
            format!("{wavm:.2}x geomean (baseline JIT)"),
        );
        let holds = wavm <= wasmtime && wasmtime <= v8 && v8 < interp;
        claim(
            "Engine ordering wavm<=wasmtime<=v8<interp",
            "holds",
            if holds { "holds" } else { "VIOLATED" }.into(),
        );
    }
    if let Some(v8) = geo("spec", EngineSel::V8) {
        claim(
            "V8 vs native (SPEC)",
            "1.69x geomean (x86_64)",
            format!("{v8:.2}x geomean (proxies)"),
        );
    }
    lines
}

/// Fig. 1, Fig. 2a and §4.4 as titled text tables.
pub fn tables(measured: &[Measured], means: &[SuiteMean], claims: &[[String; 3]]) -> String {
    let strategies = measured.first().map_or(&[][..], |m| &m.fig1[..]);
    let mut header = vec!["suite", "benchmark"];
    header.extend(strategies.iter().map(|(s, _)| s.name()));
    let mut fig1 = Table::new(&header);
    for m in measured {
        let ratios = m.fig1.iter().map(|(_, e)| format!("{:.3}", e.ratio));
        fig1.row(
            [m.suite.into(), m.name.clone()]
                .into_iter()
                .chain(ratios)
                .collect(),
        );
    }
    let mut fig2a = Table::new(&["suite", "engine", "strategy", "geomean_vs_native"]);
    for &(suite, (e, s), g) in means {
        fig2a.row(vec![
            suite.into(),
            e.name().into(),
            s.name().into(),
            format!("{g:.3}"),
        ]);
    }
    let mut replication = Table::new(&["claim", "paper", "this reproduction"]);
    for c in claims {
        replication.row(c.to_vec());
    }
    format!(
        "\nFigure 1: isolate iteration time normalized to `none`, V8-profile engine\n\n{}\
         \nFigure 2a (x86_64): geomean of per-benchmark ratios to native\n\n{}\
         \nSection 4.4 replication of prior results\n\n{}",
        fig1.render(),
        fig2a.render(),
        replication.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two PolyBench rows and a SPEC row. Every round has its own host
    /// load, shared by all cells; a sample is that load times the cell's
    /// scale, with engines and strategies indexed in declaration order
    /// (native, interp, wavm, wasmtime, v8; none, clamp, trap, mprotect,
    /// uffd) and the interpreter slower on each row.
    #[test]
    fn views_read_one_set_of_samples() {
        let cells = cells(&BoundsStrategy::ALL);
        let row = |k: f64, suite| {
            let engine = [1.0, 30.0 * k, 3.0, 3.3, 3.6];
            let scale = |(e, s): Cell| engine[e as usize] * [1.0, 1.4, 1.1, 1.05, 1.08][s as usize];
            let load = (0..lb_harness::stats::ROUNDS).map(|r| 1.0 + (r % 7) as f64 / 10.0);
            let samples: Vec<Vec<f64>> = cells
                .iter()
                .map(|&c| load.clone().map(|l| scale(c) * l).collect())
                .collect();
            Measured::new(suite, suite, &cells, &samples)
        };
        let measured = [
            row(1.0, "polybench"),
            row(2.0, "polybench"),
            row(3.0, "spec"),
        ];
        let mut means = fig2a(&cells, &measured);

        // Fig. 1's none column is exactly 1.
        for m in &measured {
            let (s, none) = m.fig1[0];
            assert_eq!(
                (s, none.ratio, none.ci),
                (BoundsStrategy::None, 1.0, (1.0, 1.0))
            );
        }
        // interp appears only under trap.
        let trap_only = |&(e, s): &Cell| e != EngineSel::Interp || s == BoundsStrategy::Trap;
        assert!(cells.iter().all(trap_only) && means.iter().all(|m| trap_only(&m.1)));
        assert_eq!(cells.iter().filter(|c| c.0 == EngineSel::Interp).count(), 1);
        // Each Fig. 2a cell is the geomean of its rows' ratios.
        assert_eq!(means.len(), 2 * (cells.len() - 2), "both suites, no native");
        for &(suite, cell, geomean) in &means {
            let i = cells.iter().position(|&c| c == cell).unwrap();
            let ratios = measured
                .iter()
                .filter(|m| m.suite == suite)
                .map(|m| m.est[i].ratio);
            assert_eq!(geomean, geomean_ratios(&ratios.collect::<Vec<_>>()));
        }
        // §4.4's rows and ordering line come from those same cells.
        let geo = |suite: &str, cell: &str| {
            means
                .iter()
                .find(|m| m.0 == suite && name(m.1) == cell)
                .unwrap()
                .2
        };
        let (v8, spec_v8) = (geo("polybench", "v8/mprotect"), geo("spec", "v8/mprotect"));
        let expected = [
            format!("{:.1}x slower", geo("polybench", "interp/trap") / v8),
            format!("{v8:.2}x geomean"),
            format!(
                "{:.2}x geomean (baseline JIT)",
                geo("polybench", "wavm/mprotect")
            ),
            "holds".into(),
            format!("{spec_v8:.2}x geomean (proxies)"),
        ];
        assert!(replication(&means)
            .into_iter()
            .map(|[_, _, ours]| ours)
            .eq(expected));
        means
            .iter_mut()
            .find(|m| name(m.1) == "wavm/mprotect")
            .unwrap()
            .2 = 1e3;
        assert_eq!(replication(&means)[3][2], "VIOLATED");
    }
}
