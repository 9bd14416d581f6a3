package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	securetf "github.com/securetf/securetf"
)

// nodeModel is the model one gateway node serves.
type nodeModel struct {
	name string
	lite *securetf.LiteModel
	// fromVolume stores the model encrypted on the node's FS-shield
	// volume and loads it from there with LoadModel; otherwise it is
	// registered from memory.
	fromVolume bool
}

// fleetSpec describes a serving fleet: one gateway node per model, an
// attested router in front, and an attested client container.
type fleetSpec struct {
	nodes []nodeModel
	// graph, when set, is the inference graph clients call; otherwise
	// they call nodes[0] by model name.
	graph    *securetf.GraphSpec
	maxBatch int
}

type fleet struct {
	cl      *cluster
	spec    fleetSpec
	nodeC   []*securetf.Container
	gws     []*securetf.ModelServer
	routerC *securetf.Container
	clientC *securetf.Container
	rt      *securetf.Router
	target  string
}

func buildFleet(spec fleetSpec, sp spanRef) (f *fleet, err error) {
	cl, err := newCluster(securetf.TFLiteImage(), sp)
	if err != nil {
		return nil, err
	}
	f = &fleet{cl: cl, spec: spec, target: spec.nodes[0].name}
	if spec.graph != nil {
		f.target = spec.graph.Name
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var nodes []securetf.RouterNode
	for i, n := range spec.nodes {
		name := fmt.Sprintf("node-%d", i)
		c, err := cl.launch(name, true, n.fromVolume, sp)
		if err != nil {
			return f, err
		}
		f.nodeC = append(f.nodeC, c)
		gw, err := securetf.ServeModels(c, securetf.ModelServerConfig{
			Addr:          "127.0.0.1:0",
			ServingConfig: securetf.ServingConfig{MaxBatch: spec.maxBatch},
		})
		if err != nil {
			return f, err
		}
		f.gws = append(f.gws, gw)
		if n.fromVolume {
			err = loadFromVolume(c, gw, n.name, n.lite, sp)
		} else {
			err = gw.Register(n.name, 1, n.lite)
		}
		if err != nil {
			return f, err
		}
		nodes = append(nodes, securetf.RouterNode{Name: name, Addr: gw.Addr(), ServerName: name, Models: []string{n.name}})
	}
	if f.routerC, err = cl.launch("router", true, false, sp); err != nil {
		return f, err
	}
	cfg := securetf.RouterConfig{Addr: "127.0.0.1:0", Nodes: nodes}
	if spec.graph != nil {
		cfg.Graphs = []securetf.GraphSpec{*spec.graph}
	}
	s := sp.child("router.ServeRouter")
	f.rt, err = securetf.ServeRouter(f.routerC, cfg)
	s.end()
	if err != nil {
		return f, err
	}
	f.clientC, err = cl.launch("client", true, false, sp)
	return f, err
}

// loadFromVolume stores lite encrypted on c's models volume and loads it
// into gw from there, as version 1 of name.
func loadFromVolume(c *securetf.Container, gw *securetf.ModelServer, name string, lite *securetf.LiteModel, sp spanRef) error {
	path := modelDir + name + ".stfl"
	s := sp.child("fsshield.WriteFile")
	err := securetf.WriteFile(c.FS(), path, lite.Marshal())
	s.end()
	if err != nil {
		return err
	}
	s = sp.child("serving.LoadModel")
	defer s.end()
	return gw.LoadModel(name, 1, path)
}

// dial connects one client to the router, pinning its manifest key.
func (f *fleet) dial(sp spanRef) (*securetf.RouterClient, error) {
	s := sp.child("router.DialRouter")
	defer s.end()
	cfg := securetf.RouterClientConfig{Addr: f.rt.Addr(), ServerName: "router", VerifyKey: f.rt.ManifestKey().Public()}
	if f.spec.graph != nil {
		cfg.ExpectGraphs = []string{f.target}
	} else {
		cfg.ExpectModels = []string{f.target}
	}
	return securetf.DialRouter(f.clientC, cfg)
}

// servers are the fleet's serving-side containers: gateway nodes and
// the router.
func (f *fleet) servers() []*securetf.Container {
	return append(slices.Clone(f.nodeC), f.routerC)
}

func (f *fleet) close() {
	if f.rt != nil {
		f.rt.Close()
	}
	for _, gw := range f.gws {
		gw.Close()
	}
	f.cl.close()
}

// probe times, on the otherwise idle fleet, a request routed through
// the router against the same request sent directly to each step's
// gateway node. It returns the median direct round trip to the first
// node and the median time the router adds over the direct calls.
func (f *fleet) probe(input *securetf.Tensor, iters int, tr *tracer) (gatewayRTT, hop time.Duration, err error) {
	direct := make([]*securetf.ModelClient, len(f.gws))
	for i, gw := range f.gws {
		if direct[i], err = securetf.DialModelServer(f.clientC, securetf.ModelClientConfig{Addr: gw.Addr(), ServerName: fmt.Sprintf("node-%d", i)}); err != nil {
			return 0, 0, err
		}
		defer direct[i].Close()
	}
	rc, err := f.dial(tr.root("probe.dial"))
	if err != nil {
		return 0, 0, err
	}
	defer rc.Close()
	var rtts, hops []float64
	for it := 0; it < iters+1; it++ {
		p := tr.root("probe")
		s := p.child("router.Infer")
		if _, _, err := rc.Infer(f.target, 0, input); err != nil {
			return 0, 0, err
		}
		routed := s.end()
		// The direct calls replay the graph's steps in order, feeding
		// each node the previous step's output.
		var sum time.Duration
		x := input
		for i, n := range f.spec.nodes {
			s := p.child("gateway.Infer." + n.name)
			out, _, err := direct[i].Infer(n.name, 0, x)
			d := s.end()
			if err != nil {
				return 0, 0, err
			}
			if i == 0 {
				rtts = append(rtts, float64(d))
			}
			sum += d
			x = out
		}
		p.end()
		if it > 0 { // the first round warms the direct connections
			hops = append(hops, float64(routed-sum))
		}
	}
	return time.Duration(percentile(rtts[1:], 50)), time.Duration(percentile(hops, 50)), nil
}

// serveRun is a live serving workload: a fleet, two closed-loop
// clients and the reference answers for every input.
type serveRun struct {
	f       *fleet
	clients []*securetf.RouterClient
	inputs  []*securetf.Tensor
	want    [][]int
	// reference answers an input in process, with no container.
	reference func(*securetf.Tensor) ([]int, error)
	point     opPoint
}

// serveClients is the closed-loop client count: one process on a
// 2-core host, each client waiting for its reply before sending again.
const serveClients = 2

func (r *serveRun) dialClients(sp spanRef) error {
	for i := 0; i < serveClients; i++ {
		rc, err := r.f.dial(sp)
		if err != nil {
			return err
		}
		r.clients = append(r.clients, rc)
	}
	return nil
}

// prepare computes the reference answers. It is the benchmark's own
// checking work, so it runs after set-up is timed.
func (r *serveRun) prepare() error {
	r.want = make([][]int, len(r.inputs))
	for i, in := range r.inputs {
		var err error
		if r.want[i], err = r.reference(in); err != nil {
			return fmt.Errorf("reference answer %d: %w", i, err)
		}
	}
	return nil
}

// warmup sends a few untimed requests per client, so first-use costs
// (backend connection pools, interpreter allocation) stay out of the
// measurement.
func (r *serveRun) warmup() error {
	_, err := r.run(0, 8, nil)
	return err
}

func (r *serveRun) measure(d time.Duration, tr *tracer) (*window, error) {
	servers := r.f.servers()
	cb, sb := clocks(servers), stats(servers)
	mb := r.f.gws[0].Metrics()
	w, err := r.run(d, 0, tr)
	if err != nil {
		return nil, err
	}
	w.vspan = makespan(cb, clocks(servers))
	ma := r.f.gws[0].Metrics()
	w.layers = perOp(enclaveDelta(sb, stats(servers)), int(w.ops))
	if len(mb) == 1 && len(ma) == 1 {
		if batches := ma[0].Batches - mb[0].Batches; batches > 0 {
			w.layers["serving.rows_per_invoke"] = float64(ma[0].Served-mb[0].Served) / float64(batches)
		}
		w.layers["serving.vlatency_p50_ms"] = ms(ma[0].P50)
		w.layers["serving.rejected"] = float64(ma[0].Rejected - mb[0].Rejected)
	}
	return w, nil
}

// run drives the closed loop for d, or for n requests per client when d
// is zero. Failed requests enter the latency sample as +Inf.
func (r *serveRun) run(d time.Duration, n int, tr *tracer) (*window, error) {
	type result struct {
		lat           []float64
		done          []time.Duration
		failed, wrong int
		firstErr      error
	}
	results := make([]result, len(r.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci, rc := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[ci]
			for j := 0; (d > 0 && time.Now().Before(deadline)) || (d == 0 && j < n); j++ {
				idx := (ci*len(r.inputs)/len(r.clients) + j) % len(r.inputs)
				s := tr.root("router.Classify")
				got, err := rc.Classify(r.f.target, r.inputs[idx])
				lat := ms(s.end())
				if err == nil {
					res.done = append(res.done, time.Since(start))
				}
				switch {
				case err != nil:
					res.failed++
					lat = math.Inf(1)
					if res.firstErr == nil {
						res.firstErr = err
					}
				case !slices.Equal(got, r.want[idx]):
					res.wrong++
				}
				res.lat = append(res.lat, lat)
			}
		}()
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start), per: 1}
	var errs []error
	for _, res := range results {
		w.lat = append(w.lat, res.lat...)
		w.done = append(w.done, res.done...)
		w.failed += res.failed
		w.wrong += res.wrong
		errs = append(errs, res.firstErr)
	}
	w.attempted = len(w.lat)
	w.ops = float64(w.attempted - w.failed)
	if d == 0 && w.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", errors.Join(errs...))
	}
	if w.failed > 0 {
		w.errs = errors.Join(errs...)
	}
	return w, nil
}

// stepVtimes is the median per-step virtual time of the graph's
// retained executions, keyed by step name.
func (r *serveRun) stepVtimes() map[string]float64 {
	out := map[string]float64{}
	if r.f.spec.graph == nil {
		return out
	}
	per := map[string][]float64{}
	for _, t := range r.f.rt.Traces(r.f.target) {
		for _, st := range t.Steps {
			per[st.Step] = append(per[st.Step], ms(st.Vtime))
		}
	}
	for step, v := range per {
		out[step] = percentile(v, 50)
	}
	return out
}

func (r *serveRun) verify() error { return nil }

func (r *serveRun) close() {
	for _, rc := range r.clients {
		rc.Close()
	}
	r.f.close()
}

// densenetSpec is the paper's Figure 5 model: a 42 MB dense stack.
func densenetSpec() securetf.ModelSpec { return securetf.PaperModels()[0] }

// setupDensenet builds serve-densenet: one TLS gateway node with
// micro-batching on, serving densenet from memory, behind an attested
// router.
func setupDensenet(seed int64, sp spanRef) (instance, error) {
	spec := densenetSpec()
	s := sp.child("models.BuildInferenceModel")
	model := securetf.BuildInferenceModel(spec)
	s.end()
	r := &serveRun{}
	s = sp.child("datasets.generate")
	for i := 0; i < 32; i++ {
		r.inputs = append(r.inputs, securetf.RandomImageInput(spec, 1, seed*1000+int64(i)))
	}
	s.end()
	f, err := buildFleet(fleetSpec{nodes: []nodeModel{{name: "densenet", lite: model}}, maxBatch: 32}, sp)
	if err != nil {
		return nil, err
	}
	r.f = f
	if err := r.dialClients(sp); err != nil {
		r.close()
		return nil, err
	}
	ref, err := securetf.NewClassifier(nil, model, 1)
	if err != nil {
		r.close()
		return nil, err
	}
	r.reference = ref.Classify
	r.point = opPoint{lite: model, input: r.inputs[0]}
	return r, nil
}

// Digitization graph classes: ten digits plus the mask class the
// redact step puts on sensitive digits (3 and 7).
const maskClass = 10

func sensitive(d int) bool { return d == 3 || d == 7 }

// stageModel builds a fixed-weight [in, out] matrix stage, optionally
// after a softmax, through the frozen-graph → Lite conversion.
func stageModel(in, out int, softmax bool, w func(i, j int) float32) (*securetf.LiteModel, error) {
	vals := make([]float32, in*out)
	for i := 0; i < in; i++ {
		for j := 0; j < out; j++ {
			vals[i*out+j] = w(i, j)
		}
	}
	wt, err := securetf.TensorFromFloats(securetf.Shape{in, out}, vals)
	if err != nil {
		return nil, err
	}
	g := securetf.NewGraph()
	x := g.Placeholder("in", securetf.Float32, securetf.Shape{-1, in})
	cur := x
	if softmax {
		cur = g.Softmax(cur)
	}
	frozen := &securetf.FrozenModel{Graph: g, Input: x, Output: g.MatMul(cur, g.Const("w", wt))}
	return frozen.ConvertToLite(securetf.ConvertOptions{})
}

// liteOf converts a freshly initialised model to a Lite model.
func liteOf(m securetf.Model, seed int64) (*securetf.LiteModel, error) {
	tm, err := securetf.OpenModel(nil, m, nil, 1, seed)
	if err != nil {
		return nil, err
	}
	defer tm.Close()
	frozen, err := tm.Freeze()
	if err != nil {
		return nil, err
	}
	return frozen.ConvertToLite(securetf.ConvertOptions{})
}

// digitizeModels builds the three stages of the digitization graph:
// the OCR CNN, a classify stage that appends the sensitive probability
// mass as an eleventh column, and a redact stage that moves sensitive
// rows onto the mask class.
func digitizeModels(seed int64) (ocr, classify, redact *securetf.LiteModel, err error) {
	if ocr, err = liteOf(securetf.NewMNISTCNN(seed), seed); err != nil {
		return
	}
	if classify, err = stageModel(10, 11, true, func(i, j int) float32 {
		if i == j || (j == maskClass && sensitive(i)) {
			return 1
		}
		return 0
	}); err != nil {
		return
	}
	redact, err = stageModel(11, 11, false, func(i, j int) float32 {
		switch {
		case i == maskClass && j == maskClass:
			return 3
		case i == maskClass:
			return -2
		case i == j:
			return 1
		}
		return 0
	})
	return
}

// setupDigitize builds serve-digitize: the ocr → classify → redact
// graph over three TLS gateway nodes, the OCR model loaded from an
// encrypted volume.
func setupDigitize(seed int64, sp spanRef) (instance, error) {
	r := &serveRun{}
	s := sp.child("datasets.generate")
	fs := securetf.NewMemFS()
	err := securetf.GenerateMNIST(fs, "docs", 0, 64, seed)
	var xs *securetf.Tensor
	if err == nil {
		xs, _, err = securetf.LoadMNIST(fs, "docs/t10k-images-idx3-ubyte", "docs/t10k-labels-idx1-ubyte")
	}
	for i := 0; err == nil && i < 64; i++ {
		var row *securetf.Tensor
		if row, err = securetf.SliceRows(xs, i, i+1); err == nil {
			r.inputs = append(r.inputs, row)
		}
	}
	s.end()
	if err != nil {
		return nil, err
	}
	s = sp.child("tflite.Convert")
	ocr, classify, redact, err := digitizeModels(seed)
	s.end()
	if err != nil {
		return nil, err
	}
	graph := &securetf.GraphSpec{
		Name: "digitize",
		Nodes: map[string]securetf.GraphNode{
			"root": {Kind: securetf.GraphSequence, Steps: []securetf.GraphStep{
				{Name: "ocr", Model: "ocr"},
				{Name: "classify", Model: "classify"},
				{Name: "redact", Model: "redact"},
			}},
		},
	}
	f, err := buildFleet(fleetSpec{nodes: []nodeModel{
		{name: "ocr", lite: ocr, fromVolume: true},
		{name: "classify", lite: classify},
		{name: "redact", lite: redact},
	}, graph: graph}, sp)
	if err != nil {
		return nil, err
	}
	r.f = f
	if err := r.dialClients(sp); err != nil {
		r.close()
		return nil, err
	}
	var stages [3]*securetf.Classifier
	for i, m := range []*securetf.LiteModel{ocr, classify, redact} {
		if stages[i], err = securetf.NewClassifier(nil, m, 1); err != nil {
			r.close()
			return nil, err
		}
	}
	r.reference = func(x *securetf.Tensor) ([]int, error) {
		for _, st := range stages[:2] {
			var err error
			if x, err = st.Run(x); err != nil {
				return nil, err
			}
		}
		return stages[2].Classify(x)
	}
	r.point = opPoint{lite: ocr, input: r.inputs[0]}
	return r, nil
}
