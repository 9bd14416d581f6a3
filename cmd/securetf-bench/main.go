// Command securetf-bench regenerates every table and figure of the
// paper's evaluation (§5) from the command line.
//
// Usage:
//
//	securetf-bench -fig all
//	securetf-bench -fig 5 -runs 20
//	securetf-bench -fig 7 -images 800        # the paper's full batch
//	securetf-bench -fig 8 -steps 12 -batch 100
//
// Figures: 4 (attestation latency), 5 (classification latency across
// runtimes), 6 (file-system shield effect), 7 (scale-up/scale-out),
// 8 (distributed training), 8-shards (sharded parameter-server sweep),
// 8-async (bounded-staleness consistency sweep with a straggler),
// 8-compress (gradient codecs on the push path, TLS × {none, int8,
// top-k}), 9-elastic (worker elasticity across a mid-job kill),
// tf-vs-tflite (§5.3 #4 comparison), elastic (challenge ➍: attesting an
// autoscaling wave, CAS vs IAS).
//
// Absolute numbers come from the calibrated virtual-time cost model and
// are not expected to match the paper's testbed. The shape tests in
// internal/experiments check orderings and pin deterministic outputs;
// BENCH_baseline.json records the gated benchmark values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/securetf/securetf/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "securetf-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("securetf-bench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 4, 5, 6, 7, 8, 8-shards, 8-async, 8-compress, 9-elastic, tf-vs-tflite, elastic, all")
		runs    = fs.Int("runs", 0, "classification runs averaged per point (paper: 1000)")
		images  = fs.Int("images", 0, "figure 7 batch size (paper: 800)")
		steps   = fs.Int("steps", 0, "figure 8 training steps")
		batch   = fs.Int("batch", 0, "figure 8 minibatch size (paper: 100)")
		verbose = fs.Bool("v", false, "log progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Runs: *runs, Images: *images, Steps: *steps, BatchSize: *batch}
	if *verbose {
		cfg.Log = os.Stderr
	}

	figures := []struct {
		name string
		run  func() error
	}{
		{"4", table(cfg, w, experiments.Figure4, experiments.PrintFigure4)},
		{"5", table(cfg, w, experiments.Figure5, experiments.PrintFigure5)},
		{"6", table(cfg, w, experiments.Figure6, experiments.PrintFigure6)},
		{"7", table(cfg, w, experiments.Figure7, experiments.PrintFigure7)},
		{"8", table(cfg, w, experiments.Figure8, experiments.PrintFigure8)},
		{"8-shards", table(cfg, w, experiments.Figure8Shards, experiments.PrintFigure8Shards)},
		{"8-async", table(cfg, w, experiments.Figure8Async, experiments.PrintFigure8Async)},
		{"8-compress", table(cfg, w, experiments.Figure8Compress, experiments.PrintFigure8Compress)},
		{"9-elastic", table(cfg, w, experiments.Figure9Elastic, experiments.PrintFigure9Elastic)},
		{"tf-vs-tflite", table(cfg, w, experiments.TFvsTFLite, experiments.PrintTFvsTFLite)},
		{"elastic", func() error {
			const wave = 4
			casTotal, iasTotal, err := experiments.ElasticScaling(wave)
			if err != nil {
				return err
			}
			experiments.PrintElasticScaling(w, wave, casTotal, iasTotal)
			return nil
		}},
	}

	matched := false
	for i, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		matched = true
		if i > 0 && *fig == "all" {
			fmt.Fprintln(w)
		}
		if err := f.run(); err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (want 4, 5, 6, 7, 8, 8-shards, 8-async, 8-compress, 9-elastic, tf-vs-tflite, elastic or all)", *fig)
	}
	return nil
}

// table runs one figure's experiment and prints its rows.
func table[R any](cfg experiments.Config, w io.Writer, figure func(experiments.Config) ([]R, error), render func(io.Writer, []R)) func() error {
	return func() error {
		rows, err := figure(cfg)
		if err != nil {
			return err
		}
		render(w, rows)
		return nil
	}
}
