package experiments

import (
	"fmt"
	"io"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tflite"
	"github.com/securetf/securetf/internal/vtime"
)

// Fig5Row is one bar of Figure 5: classification latency of one system
// on one model.
type Fig5Row struct {
	System     string
	Model      string
	ModelBytes int64
	Latency    time.Duration
}

// Figure5 reproduces the classification latency comparison (paper
// Fig. 5): native musl, native glibc, secureTF Sim, secureTF HW and
// Graphene, each classifying one image with models of 42/91/163 MB on a
// single thread.
func Figure5(cfg Config) ([]Fig5Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig5Row
	for _, spec := range cfg.Models {
		cfg.logf("fig5: building %s (%d MB)", spec.Name, spec.FileBytes>>20)
		model := models.BuildInferenceModel(spec)
		input := models.RandomImageInput(spec, 1, 5)
		for _, kind := range fig5Kinds() {
			latency, err := classifyLatency(kind, model, input, cfg.Runs, 1, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig5 %v/%s: %w", kind, spec.Name, err)
			}
			cfg.logf("fig5: %-14s %-13s %8.1f ms", kind, spec.Name, float64(latency)/1e6)
			rows = append(rows, Fig5Row{
				System:     kind.String(),
				Model:      spec.Name,
				ModelBytes: spec.FileBytes,
				Latency:    latency,
			})
		}
	}
	return rows, nil
}

// classifyLatency measures the mean per-classification virtual latency of
// a model under a runtime kind. extraSetup, when non-nil, runs after the
// container launches (e.g. to register per-thread arenas).
func classifyLatency(kind core.RuntimeKind, model *tflite.Model, input *tf.Tensor, runs, threads int, extraSetup func(c *core.Container) error) (time.Duration, error) {
	platform, err := newPlatform("node")
	if err != nil {
		return 0, err
	}
	c, err := core.Launch(core.Config{
		Kind:     kind,
		Platform: platform,
		Image:    securetf.TFLiteImage(),
		HostFS:   fsapi.NewMem(),
		Threads:  threads,
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if extraSetup != nil {
		if err := extraSetup(c); err != nil {
			return 0, err
		}
	}
	interp, err := tflite.NewInterpreter(model, tflite.WithDevice(c.Device(threads)))
	if err != nil {
		return 0, err
	}
	defer interp.Close()
	if err := interp.AllocateTensors(); err != nil {
		return 0, err
	}
	return measureInvokes(c.Clock(), interp, input, runs)
}

// measureInvokes runs the interpreter `runs` times over input and returns
// the mean virtual latency.
func measureInvokes(clock *vtime.Clock, interp *tflite.Interpreter, input *tf.Tensor, runs int) (time.Duration, error) {
	if err := interp.SetInput(0, input); err != nil {
		return 0, err
	}
	// Warm-up invoke (arena planning), not measured — the paper's 1,000
	// run averages amortize startup the same way.
	if err := interp.Invoke(); err != nil {
		return 0, err
	}
	span := clock.Start()
	for i := 0; i < runs; i++ {
		if err := interp.Invoke(); err != nil {
			return 0, err
		}
	}
	return span.Stop() / time.Duration(runs), nil
}

// PrintFigure5 renders the rows as a table grouped by model.
func PrintFigure5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Figure 5 — classification latency (ms), single thread")
	fmt.Fprintf(w, "%-14s %-14s %10s %12s\n", "system", "model", "size(MB)", "latency(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %10d %12s\n", r.System, r.Model, r.ModelBytes>>20, fmtDur(r.Latency))
	}
}
