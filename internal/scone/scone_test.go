package scone

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/sgx"
)

func launchTestRuntime(t *testing.T, mode sgx.Mode) *Runtime {
	t.Helper()
	p, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Launch(Config{
		Platform: p,
		Mode:     mode,
		Image:    sgx.SyntheticImage("app", 2<<20, 1<<20),
		HostFS:   fsapi.NewMem(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestLaunchValidation(t *testing.T) {
	if _, err := Launch(Config{}); err == nil {
		t.Fatal("missing platform accepted")
	}
	p, _ := sgx.NewPlatform("n", sgx.DefaultParams())
	if _, err := Launch(Config{Platform: p, Mode: sgx.ModeHW, Image: sgx.Image{Name: "a"}}); err == nil {
		t.Fatal("missing host FS accepted")
	}
}

func TestRuntimeNames(t *testing.T) {
	if got := launchTestRuntime(t, sgx.ModeHW).Name(); got != "scone-hw" {
		t.Fatalf("Name = %q", got)
	}
	if got := launchTestRuntime(t, sgx.ModeSIM).Name(); got != "scone-sim" {
		t.Fatalf("Name = %q", got)
	}
}

func TestSyscallUsesAsyncQueueNotTransitions(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	base := rt.Enclave().Stats()
	ran := false
	rt.Syscall(func() { ran = true })
	if !ran {
		t.Fatal("syscall body did not run")
	}
	after := rt.Enclave().Stats()
	if got := after.AsyncSyscalls - base.AsyncSyscalls; got != 1 {
		t.Fatalf("async syscalls = %d, want 1", got)
	}
	if got := after.Transitions - base.Transitions; got != 0 {
		t.Fatalf("transitions = %d, want 0 (exit-less design)", got)
	}
}

func TestFSRoundTripThroughQueue(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	fsys := rt.FS()
	if err := fsapi.WriteFile(fsys, "data/input.bin", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(fsys, "data/input.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
	if rt.Enclave().Stats().AsyncSyscalls == 0 {
		t.Fatal("file I/O bypassed the syscall queue")
	}
}

func TestSyscallQueueConcurrent(t *testing.T) {
	q := NewSyscallQueue(4)
	defer q.Close()
	var counter atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Do(func() { counter.Add(1) })
		}()
	}
	wg.Wait()
	if counter.Load() != 100 {
		t.Fatalf("counter = %d, want 100", counter.Load())
	}
}

func TestSyscallQueueCloseIdempotentAndInlineAfterClose(t *testing.T) {
	q := NewSyscallQueue(1)
	q.Close()
	q.Close() // must not panic
	ran := false
	q.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do after Close did not run inline")
	}
}

func TestSchedulerLimitsConcurrency(t *testing.T) {
	const contexts = 3
	s := NewScheduler(contexts)
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 20; i++ {
		wg.Add(1)
		s.Go(func() {
			defer wg.Done()
			<-release
		})
	}
	close(release)
	wg.Wait()
	s.Wait()
	if got := s.MaxRunning(); got > contexts {
		t.Fatalf("MaxRunning = %d, want <= %d", got, contexts)
	}
}

func TestSchedulerBlockingReleasesContext(t *testing.T) {
	s := NewScheduler(1)
	entered := make(chan struct{})
	proceed := make(chan struct{})
	other := make(chan struct{})

	s.Go(func() {
		s.Blocking(func() {
			close(entered)
			<-proceed
		})
	})
	<-entered
	// With the only context released by Blocking, another thread must be
	// able to run to completion.
	s.Go(func() { close(other) })
	<-other
	close(proceed)
	s.Wait()
	if s.Switches() == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestSchedulerYield(t *testing.T) {
	s := NewScheduler(2)
	done := make(chan struct{})
	s.Go(func() {
		s.Yield()
		close(done)
	})
	<-done
	s.Wait()
}

func TestDialListenThroughRuntime(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	ln, err := rt.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	msg := []byte("gradients")
	errc := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, len(msg))
		if _, err := conn.Read(buf); err != nil {
			errc <- err
			return
		}
		_, err = conn.Write(buf)
		errc <- err
	}()

	conn, err := rt.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("echo mismatch: %q", buf)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestBlockingSyscallChargesOnReturn pins where a parked wait's cost
// lands: after the wait, in order with what it delivers, never while
// other threads are still charging the shared clock.
func TestBlockingSyscallChargesOnReturn(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	base := rt.Enclave().Stats().AsyncSyscalls
	var during int64
	rt.BlockingSyscall(func() { during = rt.Enclave().Stats().AsyncSyscalls })
	if during != base {
		t.Fatalf("charged %d syscalls before the wait ended", during-base)
	}
	if got := rt.Enclave().Stats().AsyncSyscalls - base; got != 1 {
		t.Fatalf("charged %d syscalls, want 1", got)
	}
}

// TestReadFullChargesOneSyscall pins the determinism property framed
// receives rely on: however many chunks the bytes arrive in, ReadFull
// is one syscall submission.
func TestReadFullChargesOneSyscall(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	local, remote := net.Pipe()
	defer remote.Close()
	conn := &sysConn{rt: rt, Conn: local}
	defer conn.Close()
	go func() {
		for _, chunk := range []string{"gra", "die", "nts"} {
			remote.Write([]byte(chunk))
		}
	}()
	base := rt.Enclave().Stats()
	buf := make([]byte, len("gradients"))
	if _, err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "gradients" {
		t.Fatalf("ReadFull = %q", buf)
	}
	if got := rt.Enclave().Stats().AsyncSyscalls - base.AsyncSyscalls; got != 1 {
		t.Fatalf("ReadFull over 3 chunks charged %d syscalls, want 1", got)
	}
}

func TestDeviceAppliesMuslFactor(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeSIM)
	dev := rt.Device(1)
	before := dev.Clock().Now()
	dev.Compute(1e9)
	elapsed := dev.Clock().Now() - before
	params := sgx.DefaultParams()
	plain := params.ComputeTime(1e9, 1)
	if elapsed <= plain {
		t.Fatalf("musl-factored compute (%v) should exceed plain (%v)", elapsed, plain)
	}
}

func TestFSConformance(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	fstest.Conformance(t, rt.FS())
}

func TestSchedulerAccessors(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	sched := rt.Scheduler()
	if sched == nil {
		t.Fatal("no scheduler")
	}
	if sched.Contexts() <= 0 {
		t.Fatalf("contexts = %d", sched.Contexts())
	}
}
