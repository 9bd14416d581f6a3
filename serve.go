package securetf

import (
	"crypto/ecdsa"
	"time"

	"github.com/securetf/securetf/internal/serving"
	"github.com/securetf/securetf/internal/serving/router"
)

// ModelServer is the §4.2 serving gateway: a versioned multi-model
// inference service with interpreter-replica pools, adaptive
// micro-batching and bounded-queue admission control, listening through
// the container's (possibly shielded) listener. Register models with
// Register or LoadModel, switch traffic atomically with SetServing and
// read counters with Metrics.
type ModelServer = serving.Gateway

// ServingConfig tunes a ModelServer: replicas per version, device
// threads per replica, micro-batching window and size, the admission
// queue bound, and optionally the replica autoscaler. These are the
// gateway-default layer of the config chain; install per-model and
// per-version overrides live with ModelServer.UpdateConfig.
type ServingConfig = serving.Config

// ServingOverrides is one override layer of the serving config chain
// (zero fields inherit). Install with ModelServer.UpdateConfig: version
// 0 targets the model layer, version > 0 the version layer.
type ServingOverrides = serving.Overrides

// ServingResolved is a fully resolved serving config for one model or
// model version, as reported by ModelServer.ResolvedConfig.
type ServingResolved = serving.Resolved

// ServingAutoscale enables the metric-driven replica autoscaler when set
// on ServingConfig.Autoscale: replica counts follow queue depth and
// rejections on deterministic virtual-time ticks, and idle models scale
// to zero with their interpreter pools evicted.
type ServingAutoscale = serving.AutoscaleConfig

// CanaryConfig tunes a weighted canary rollout started with
// ModelServer.StartCanary: the unpinned-traffic share routed to the
// candidate, the response window (bounded in responses and, with
// WindowVtime, in virtual time), and the rollback thresholds.
type CanaryConfig = serving.CanaryConfig

// CanaryState is a snapshot of a model's canary rollout — the active one,
// or the latest verdict — as reported by ModelServer.Canary.
type CanaryState = serving.CanaryState

// Canary phases reported by CanaryState.Phase.
const (
	CanaryActive     = serving.CanaryActive
	CanaryPromoted   = serving.CanaryPromoted
	CanaryRolledBack = serving.CanaryRolledBack
	CanaryAborted    = serving.CanaryAborted
)

// RetryPolicy makes a ModelClient retry overload rejections with capped
// exponential backoff and deterministic jitter; enable it with
// ModelClient.SetRetry or the Retry field of the client configs.
type RetryPolicy = serving.RetryPolicy

// ServingMetrics is one model version's serving counters: requests
// served, batches invoked, overload rejections, queue depth and p50/p99
// virtual latency.
type ServingMetrics = serving.ModelMetrics

// ModelClient talks to a ModelServer or a Router. It is safe for
// concurrent use, and can address any registered model by name and
// version.
type ModelClient = serving.Client

// ServingStatus is a wire status code of the serving protocol.
type ServingStatus = serving.Status

// Serving errors clients can react to by kind: back off on
// ErrOverloaded, fail over on ErrServerDraining, and treat
// ErrManifestMismatch as a deployment misconfiguration (a router, node
// or client whose placement expectations disagree).
var (
	ErrOverloaded       = serving.ErrOverloaded
	ErrModelNotFound    = serving.ErrNotFound
	ErrServerDraining   = serving.ErrShuttingDown
	ErrManifestMismatch = router.ErrManifestMismatch
)

// DefaultModelName is the registry name single-model deployments publish
// under; a client request with an empty model name resolves to it.
const DefaultModelName = serving.DefaultModelName

// ModelServerConfig configures ServeModels: where to listen, plus the
// embedded gateway knobs (promoted, so Replicas, MaxBatch, QueueCap and
// friends are set directly on this struct).
type ModelServerConfig struct {
	// Addr is the listen address (e.g. "127.0.0.1:0").
	Addr string
	ServingConfig
}

// ServeModels starts a serving gateway through the container's
// listener. Models are added afterwards with ModelServer.Register (an
// in-memory Lite model) or ModelServer.LoadModel (a model file read
// through the container's shielded file system).
func ServeModels(c *Container, cfg ModelServerConfig) (*ModelServer, error) {
	return serving.NewGateway(c, cfg.Addr, cfg.ServingConfig)
}

// ModelClientConfig configures DialModelServer.
type ModelClientConfig struct {
	// Addr is the gateway address.
	Addr string
	// ServerName is the service identity the gateway must present when
	// the network shield is provisioned (empty for plain TCP).
	ServerName string
	// Retry, when set, enables overload retries.
	Retry *RetryPolicy
}

// DialModelServer connects a container to a serving gateway, using the
// container's shielded dial when the network shield is provisioned.
func DialModelServer(c *Container, cfg ModelClientConfig) (*ModelClient, error) {
	cl, err := serving.Dial(c, cfg.Addr, cfg.ServerName)
	if err != nil {
		return nil, err
	}
	if cfg.Retry != nil {
		cl.SetRetry(*cfg.Retry)
	}
	return cl, nil
}

// Router is the front-end tier of a multi-node serving fleet: it
// verifies the model→node placement against every gateway node at
// startup, publishes it to clients as a signed manifest at dial time,
// spreads model traffic across hosting nodes by health-weighted
// round-robin with fail-over, and executes inference graphs that span
// nodes. See ServeRouter.
type Router = router.Router

// RouterNode declares one gateway node of a router's fleet: its name,
// address, TLS identity and the models the placement puts on it.
type RouterNode = router.NodeSpec

// RouterManifest is a router's signed model→node placement, as
// published to clients during the dial-time handshake.
type RouterManifest = router.Manifest

// RouterMetrics snapshots a router's node health and graph aggregates.
type RouterMetrics = router.Metrics

// GraphSpec declares an inference graph served by a Router: named nodes
// of kind GraphSequence, GraphEnsemble, GraphSplitter or GraphSwitch,
// compiled against the placement manifest so one client call can flow
// preprocess → classify → postprocess across the fleet.
type GraphSpec = router.GraphSpec

// GraphNode is one named node of a GraphSpec.
type GraphNode = router.GraphNode

// GraphStep is one edge of a GraphNode: a placed model or a reference
// to another node of the same graph.
type GraphStep = router.GraphStep

// GraphTrace is one retained graph execution with its per-step node
// assignment and virtual-time attribution; read with Router.Traces.
type GraphTrace = router.GraphTrace

// StepTrace is one executed step of a GraphTrace.
type StepTrace = router.StepTrace

// Graph node kinds.
const (
	// GraphSequence pipes each step's output into the next.
	GraphSequence = router.Sequence
	// GraphEnsemble fans out concurrently and averages the outputs,
	// degrading to the surviving branches when nodes die.
	GraphEnsemble = router.Ensemble
	// GraphSplitter routes each execution to one weighted step.
	GraphSplitter = router.Splitter
	// GraphSwitch branches on the input's predicted class.
	GraphSwitch = router.Switch
)

// RouterConfig configures ServeRouter. The manifest signing key is
// generated by the router; pin Router.ManifestKey().Public() in clients
// that verify the placement.
type RouterConfig struct {
	// Addr is the router's listen address.
	Addr string
	// Nodes is the fleet placement (at least one node).
	Nodes []RouterNode
	// Graphs are the inference graphs to compile and serve.
	Graphs []GraphSpec
	// TickEvery is the virtual-time period of the health ticks driving
	// spread weights and dead-node probes (default 20ms).
	TickEvery time.Duration
	// PoolSize caps the cached backend connections per node (default 4).
	PoolSize int
}

// ServeRouter starts a router tier over a fleet of gateway nodes. It
// fails fast with ErrManifestMismatch if any node does not serve the
// models the placement declares for it, or if a graph references an
// unplaced model.
func ServeRouter(c *Container, cfg RouterConfig) (*Router, error) {
	return router.New(c, cfg.Addr, router.Config{
		Nodes:     cfg.Nodes,
		Graphs:    cfg.Graphs,
		TickEvery: cfg.TickEvery,
		PoolSize:  cfg.PoolSize,
	})
}

// RouterClient talks to a Router after the manifest handshake; its
// requests may name any placed model or compiled graph.
type RouterClient = router.Client

// RouterClientConfig configures DialRouter.
type RouterClientConfig struct {
	// Addr is the router address.
	Addr string
	// ServerName is the router's TLS identity when the network shield is
	// provisioned (empty for plain TCP).
	ServerName string
	// VerifyKey, when set, pins the router's manifest signing key.
	VerifyKey *ecdsa.PublicKey
	// ExpectModels and ExpectGraphs fail the dial with
	// ErrManifestMismatch unless the fleet places all of them.
	ExpectModels []string
	ExpectGraphs []string
	// Retry, when set, enables overload retries.
	Retry *RetryPolicy
}

// DialRouter connects a container to a router: it declares the client's
// expected models and graphs, verifies the signed placement manifest
// the router answers with, and fails fast on any mismatch.
func DialRouter(c *Container, cfg RouterClientConfig) (*RouterClient, error) {
	return router.DialClient(c, cfg.Addr, cfg.ServerName, router.ClientConfig{
		VerifyKey:    cfg.VerifyKey,
		ExpectModels: cfg.ExpectModels,
		ExpectGraphs: cfg.ExpectGraphs,
		Retry:        cfg.Retry,
	})
}
