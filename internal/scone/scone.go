// Package scone reimplements, as a functional simulation, the SCONE
// shielded-execution runtime that secureTF builds on (Arnautov et al.,
// OSDI 2016): a small musl-derived libc inside the enclave, an exit-less
// asynchronous system-call queue serviced by threads outside the enclave,
// and a user-level M:N scheduler that keeps execution contexts busy while
// syscalls are in flight.
//
// The runtime is where the secureTF "controller" (paper Fig. 3) lives:
// it owns the enclave, interposes on file and network I/O, and hosts the
// shields layered on top.
package scone

import (
	"fmt"
	"net"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/sgx"
)

// Config configures a SCONE runtime instance.
type Config struct {
	// Platform is the SGX platform to create the enclave on. Required.
	Platform *sgx.Platform
	// Mode selects HW or SIM execution. Required.
	Mode sgx.Mode
	// Image is the application image loaded into the enclave. Required.
	Image sgx.Image
	// HostFS is the untrusted host file system the runtime proxies
	// syscalls to. Required.
	HostFS fsapi.FS
	// SyscallWorkers is the number of outside service threads draining
	// the asynchronous syscall queue. Defaults to 2.
	SyscallWorkers int
	// EnclaveThreads is the number of enclave execution contexts
	// (thread control structures). Defaults to the platform's physical
	// core count.
	EnclaveThreads int
}

// Runtime is a running SCONE container: an enclave plus its syscall
// queue, scheduler and interposed I/O.
type Runtime struct {
	cfg     Config
	enclave *sgx.Enclave
	queue   *SyscallQueue
	sched   *Scheduler
}

// Launch creates the enclave and starts the runtime services.
func Launch(cfg Config) (*Runtime, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("scone: Config.Platform is required")
	}
	if cfg.HostFS == nil {
		return nil, fmt.Errorf("scone: Config.HostFS is required")
	}
	if cfg.SyscallWorkers <= 0 {
		cfg.SyscallWorkers = 2
	}
	if cfg.EnclaveThreads <= 0 {
		cfg.EnclaveThreads = cfg.Platform.Params().PhysicalCores
	}
	enclave, err := cfg.Platform.CreateEnclave(cfg.Image, cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("scone: creating enclave: %w", err)
	}
	rt := &Runtime{
		cfg:     cfg,
		enclave: enclave,
		queue:   NewSyscallQueue(cfg.SyscallWorkers),
		sched:   NewScheduler(cfg.EnclaveThreads),
	}
	// Entering the enclave for the first time costs one transition per
	// execution context.
	for i := 0; i < cfg.EnclaveThreads; i++ {
		enclave.Transition()
	}
	return rt, nil
}

// Name identifies the runtime variant, e.g. "scone-hw".
func (r *Runtime) Name() string {
	if r.enclave.Mode() == sgx.ModeHW {
		return "scone-hw"
	}
	return "scone-sim"
}

// Enclave returns the runtime's enclave.
func (r *Runtime) Enclave() *sgx.Enclave { return r.enclave }

// Scheduler returns the user-level scheduler, on which application
// threads should be spawned.
func (r *Runtime) Scheduler() *Scheduler { return r.sched }

// Device returns a compute device bound to the enclave with the given
// thread count (0 means all enclave threads). SCONE's libc is
// musl-derived, so the musl factor applies.
func (r *Runtime) Device(threads int) device.Device {
	if threads <= 0 {
		threads = r.sched.Contexts()
	}
	return device.NewEnclave(r.Name(), r.enclave, threads, device.LibcMuslFactor)
}

// Syscall routes fn through the asynchronous syscall interface: the
// calling thread charges the enqueue cost and an outside worker runs fn.
// No enclave transition is charged — that is the point of the design.
// Application threads spawned on the Scheduler should wrap long blocking
// regions in Scheduler.Blocking to hand their execution context to
// another thread while they wait.
func (r *Runtime) Syscall(fn func()) {
	r.enclave.AsyncSyscall()
	r.queue.Do(fn)
}

// BlockingSyscall submits a request that may park indefinitely — a
// socket read with no data, a listener accept with no client. SCONE
// parks those on the network poller, not in the bounded request ring:
// a ring slot held for an unbounded wait would starve every other
// thread's syscalls (and deadlock outright when a server and its
// client share one runtime). The submission cost is the same as
// Syscall's, but it is charged when the wait ends: charged up front it
// would land at a wall-clock moment among other threads' charges to the
// shared clock, while charged on return it lands in order with the
// message or connection the call delivers.
func (r *Runtime) BlockingSyscall(fn func()) {
	fn()
	r.enclave.AsyncSyscall()
}

// CopyIn charges the cost of moving n bytes across the enclave boundary
// into protected memory (syscall results are copied and sanity-checked).
// The evaluated SCONE version suffered a scheduling pathology on the SIM
// copy path (paper §5.4, later fixed), modelled as a degraded copy
// throughput in SIM mode.
func (r *Runtime) CopyIn(n int) {
	r.copyBoundary(n)
}

// CopyOut charges the cost of moving n bytes out of the enclave.
func (r *Runtime) CopyOut(n int) {
	r.copyBoundary(n)
}

func (r *Runtime) copyBoundary(n int) {
	if n <= 0 {
		return
	}
	if r.enclave.Mode() == sgx.ModeSIM {
		params := r.cfg.Platform.Params()
		r.enclave.Clock().Advance(sgx.TimeAtThroughput(float64(n), params.SIMCopyThroughput))
		return
	}
	r.enclave.Access(int64(n), sgx.AccessStreaming)
}

// FS returns the runtime's syscall-interposed view of the host file
// system. Data crossing the boundary is charged; contents are NOT
// protected — layer a file-system shield on top for that.
func (r *Runtime) FS() fsapi.FS {
	return &sysFS{rt: r, host: r.cfg.HostFS}
}

// Dial opens a TCP connection through the syscall interface.
func (r *Runtime) Dial(network, addr string) (net.Conn, error) {
	var conn net.Conn
	var err error
	r.Syscall(func() {
		conn, err = net.Dial(network, addr)
	})
	if err != nil {
		return nil, fmt.Errorf("scone: dial %s: %w", addr, err)
	}
	return &sysConn{rt: r, Conn: conn}, nil
}

// Listen opens a TCP listener through the syscall interface.
func (r *Runtime) Listen(network, addr string) (net.Listener, error) {
	var ln net.Listener
	var err error
	r.Syscall(func() {
		ln, err = net.Listen(network, addr)
	})
	if err != nil {
		return nil, fmt.Errorf("scone: listen %s: %w", addr, err)
	}
	return &sysListener{rt: r, Listener: ln}, nil
}

// Close shuts down the runtime and destroys the enclave. Application
// threads spawned on the scheduler are waited for first.
func (r *Runtime) Close() error {
	r.sched.Wait()
	r.queue.Close()
	r.enclave.Destroy()
	return nil
}
