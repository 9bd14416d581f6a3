package securetf

import (
	"fmt"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/shield/fsshield"
	"github.com/securetf/securetf/internal/tflite"
	"github.com/securetf/securetf/internal/vtime"
)

// RuntimeKind selects the execution environment of a container: the five
// systems compared in the paper's Figure 5.
type RuntimeKind = core.RuntimeKind

// Runtime kinds.
const (
	// SconeHW is the secureTF production mode: the SCONE runtime inside
	// an SGX enclave with hardware costs (EPC paging, MEE, transitions).
	SconeHW = core.RuntimeSconeHW
	// SconeSIM is SGX simulation mode: the same runtime without
	// hardware charges — the paper uses it to project future CPUs with
	// ample EPC.
	SconeSIM = core.RuntimeSconeSIM
	// Graphene is the library-OS baseline (Graphene-SGX).
	Graphene = core.RuntimeGraphene
	// NativeGlibc runs without any enclave, linked against glibc.
	NativeGlibc = core.RuntimeNativeGlibc
	// NativeMusl runs without any enclave, linked against musl.
	NativeMusl = core.RuntimeNativeMusl
)

// Platform models one physical SGX-capable node: its CPU, EPC, platform
// attestation key and virtual clock. Create one per simulated machine.
type Platform = sgx.Platform

// Params is the calibrated cost model of a platform (EPC size, paging
// and transition costs, crypto throughput, WAN latency).
type Params = sgx.Params

// DefaultParams returns the calibration used throughout the paper
// reproduction: 94 MB usable EPC, 4 GB/s AES-NI, published SGX
// microbenchmark transition/paging costs.
func DefaultParams() Params { return sgx.DefaultParams() }

// NewPlatform creates a platform with the default calibration.
func NewPlatform(name string) (*Platform, error) {
	return sgx.NewPlatform(name, sgx.DefaultParams())
}

// NewPlatformWithParams creates a platform with custom calibration —
// ablations use this to model, for example, future CPUs with larger EPC.
func NewPlatformWithParams(name string, params Params) (*Platform, error) {
	return sgx.NewPlatform(name, params)
}

// Clock is the virtual clock all enclave costs are charged to.
type Clock = vtime.Clock

// Image is an application image measured into an enclave (MRENCLAVE is
// the SHA-256 of its content).
type Image = sgx.Image

// SyntheticImage builds an image of the given binary size and writable
// heap size with deterministic content.
func SyntheticImage(name string, size, heapSize int64) Image {
	return sgx.SyntheticImage(name, size, heapSize)
}

// TFFullBinaryBytes is the full TensorFlow binary size the paper reports
// (87.4 MB).
const TFFullBinaryBytes int64 = 87*1024*1024 + 400*1024

// tfFullHeapBytes models the full TensorFlow runtime's writable heap:
// allocator arenas, graph structures and protobuf state.
const tfFullHeapBytes int64 = 32 << 20

// TensorFlowImage is the full TensorFlow application image; the paper
// measures its binary at 87.4 MB — close to the whole EPC.
func TensorFlowImage() Image {
	return sgx.SyntheticImage("tensorflow-full", TFFullBinaryBytes, tfFullHeapBytes)
}

// TFLiteImage is the TensorFlow Lite application image; the paper
// measures its binary at 1.9 MB, the property that makes in-enclave
// inference fast.
func TFLiteImage() Image { return sgx.SyntheticImage("tensorflow-lite", tflite.BinarySize, 4<<20) }

// FS is the writable file-system interface the runtimes and shields
// implement and wrap.
type FS = fsapi.FS

// NewMemFS returns an in-memory file system (tests, examples).
func NewMemFS() FS { return fsapi.NewMem() }

// NewDirFS returns a file system rooted at an OS directory.
func NewDirFS(dir string) FS { return fsapi.NewOS(dir) }

// ReadFile reads a whole file from an FS.
func ReadFile(fsys FS, name string) ([]byte, error) { return fsapi.ReadFile(fsys, name) }

// WriteFile writes a whole file to an FS.
func WriteFile(fsys FS, name string, data []byte) error { return fsapi.WriteFile(fsys, name, data) }

// Rule maps a path prefix to a file-system shield protection level; the
// longest matching prefix wins.
type Rule = fsshield.Rule

// EncryptPrefix returns a rule that encrypts and authenticates every
// file under prefix (AES-256-GCM chunks, in-enclave metadata).
func EncryptPrefix(prefix string) Rule {
	return Rule{Prefix: prefix, Level: fsshield.LevelEncrypted}
}

// AuthenticatePrefix returns a rule that authenticates (but does not
// encrypt) every file under prefix.
func AuthenticatePrefix(prefix string) Rule {
	return Rule{Prefix: prefix, Level: fsshield.LevelAuthenticated}
}

// PassthroughPrefix returns a rule that exempts a subtree from an
// enclosing protected prefix.
func PassthroughPrefix(prefix string) Rule {
	return Rule{Prefix: prefix, Level: fsshield.LevelPassthrough}
}

// VolumeKey is a 32-byte file-system shield master key. Production
// deployments receive volume keys from the CAS after attestation;
// Launch also accepts one directly via ContainerConfig.VolumeKey.
type VolumeKey = seccrypto.Key

// NewVolumeKey draws a random volume key.
func NewVolumeKey() (*VolumeKey, error) {
	key, err := seccrypto.NewRandomKey()
	if err != nil {
		return nil, err
	}
	return &key, nil
}

// VolumeKeyFromBytes builds a volume key from exactly 32 raw bytes.
func VolumeKeyFromBytes(b []byte) (*VolumeKey, error) {
	if len(b) != seccrypto.KeySize {
		return nil, fmt.Errorf("securetf: volume key must be %d bytes, got %d", seccrypto.KeySize, len(b))
	}
	var key VolumeKey
	copy(key[:], b)
	return &key, nil
}

// ContainerConfig configures a secure container. Kind, Platform and
// HostFS are required; Image is required for shielded kinds.
type ContainerConfig = core.Config

// Container is a running secure ML container: a runtime (with enclave,
// for shielded kinds) plus the file-system and network shields.
type Container = core.Container

// Launch assembles and starts a container.
func Launch(cfg ContainerConfig) (*Container, error) { return core.Launch(cfg) }

// EnclaveStats is a snapshot of an enclave's simulated hardware
// counters: transitions, asynchronous syscalls, page faults, bytes of
// memory traffic and compute FLOPs. Read it from a container with
// Container.EnclaveStats; native kinds report zeros.
type EnclaveStats = sgx.StatsSnapshot
