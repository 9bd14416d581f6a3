// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each FigureN function runs the corresponding workload
// on the simulation substrate and returns the series the paper plots;
// Print helpers render them as text tables. The cmd/securetf-bench
// binary and the repository-root benchmarks drive these harnesses.
//
// The distributed-training figures (the Figure 8 family and Figure 9)
// run through the public facade an application uses —
// securetf.TrainDistributed, or its Launch/StartParameterServer/
// StartTrainingWorker parts where a figure schedules steps itself — so
// they measure the same cluster assembly path applications get.
//
// Absolute numbers come from the calibrated virtual-time cost model and
// are not expected to match the paper's testbed. The shape tests in this
// package assert that orderings, overhead bands and crossovers hold and
// pin the deterministic outputs exactly; BENCH_baseline.json records the
// gated benchmark values.
package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/sgx"
)

// Config tunes experiment sizes so tests, benches and the CLI can trade
// fidelity for time.
type Config struct {
	// Runs is the number of classification runs averaged per data point
	// (the paper averages 1,000). Default 10.
	Runs int
	// Models selects the Figure 5/6 model specs. Defaults to the paper's
	// three.
	Models []models.InferenceSpec
	// Images is the Figure 7 batch size (the paper classifies 800).
	// Default 64.
	Images int
	// Steps is the Figure 8 training step count. Default 12.
	Steps int
	// BatchSize is the Figure 8 minibatch size (the paper uses 100).
	BatchSize int
	// Log, when set, receives progress lines.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 10
	}
	if len(c.Models) == 0 {
		c.Models = models.PaperModels()
	}
	if c.Images <= 0 {
		c.Images = 64
	}
	if c.Steps <= 0 {
		c.Steps = 12
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// newPlatform builds a fresh platform with default calibration.
func newPlatform(name string) (*sgx.Platform, error) {
	return sgx.NewPlatform(name, sgx.DefaultParams())
}

// fig5Kinds are the five systems of Figure 5, in the paper's order.
func fig5Kinds() []core.RuntimeKind {
	return []core.RuntimeKind{
		core.RuntimeNativeMusl,
		core.RuntimeNativeGlibc,
		core.RuntimeSconeSIM,
		core.RuntimeSconeHW,
		core.RuntimeGraphene,
	}
}

// fmtDur renders a duration in milliseconds for tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// fmtDurS renders a duration in seconds for tables.
func fmtDurS(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}
