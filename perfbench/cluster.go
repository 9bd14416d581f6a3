package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	securetf "github.com/securetf/securetf"
)

// volumeKey is the FS-shield volume key the benchmark's CAS session
// provisions; the models it protects are generated per run.
var volumeKey = func() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(31 * i)
	}
	return k
}()

const (
	sessionName = "perfbench"
	volumeName  = "models"
	modelDir    = "volumes/models/"
)

// cluster is a set of enclave containers, one platform (one machine of
// the cost model) each, attested to a CAS session that provisions their
// TLS identities and the models volume key.
type cluster struct {
	image      securetf.Image
	casP       *securetf.Platform
	cas        *securetf.CAS
	containers []*securetf.Container
	registered bool
	// attest sums the virtual attestation latency of its provisions.
	attest     time.Duration
	provisions int
}

func newCluster(image securetf.Image, sp spanRef) (*cluster, error) {
	s := sp.child("cas.start")
	defer s.end()
	casP, err := securetf.NewPlatform("cas-node")
	if err != nil {
		return nil, err
	}
	cas, err := securetf.StartCAS(casP, securetf.NewMemFS())
	if err != nil {
		return nil, err
	}
	return &cluster{image: image, casP: casP, cas: cas}, nil
}

// services are the TLS identities the session issues; every node name
// the benchmark dials is among them.
var services = []string{
	"router", "node-0", "node-1", "node-2", "parameter-server", "echo",
	"localhost", "127.0.0.1",
}

// launch starts a container on a fresh platform and, when attested,
// provisions it from the CAS. A shielded container encrypts the models
// volume.
func (cl *cluster) launch(name string, attested, shielded bool, sp spanRef) (*securetf.Container, error) {
	s := sp.child("core.Launch")
	p, err := securetf.NewPlatform(name)
	if err != nil {
		return nil, err
	}
	cfg := securetf.ContainerConfig{
		Kind:     securetf.SconeHW,
		Platform: p,
		Image:    cl.image,
		HostFS:   securetf.NewMemFS(),
	}
	if shielded {
		cfg.FSShieldRules = []securetf.Rule{securetf.EncryptPrefix(modelDir)}
	}
	c, err := securetf.Launch(cfg)
	s.end()
	if err != nil {
		return nil, err
	}
	cl.containers = append(cl.containers, c)
	if !attested {
		return c, nil
	}
	cl.cas.TrustPlatform(p.Name(), p.AttestationKey())
	client, err := securetf.NewCASClient(c, cl.cas, cl.casP, p)
	if err != nil {
		return nil, err
	}
	if !cl.registered {
		if err := client.Register(&securetf.Session{
			Name:         sessionName,
			OwnerToken:   "perfbench-owner",
			Measurements: []string{c.Enclave().Measurement().Hex()},
			Volumes:      map[string][]byte{volumeName: volumeKey},
			Services:     services,
		}); err != nil {
			return nil, fmt.Errorf("register CAS session: %w", err)
		}
		cl.registered = true
	}
	s = sp.child("cas.Provision")
	_, timing, err := c.Provision(client, sessionName, volumeName)
	s.end()
	if err != nil {
		return nil, fmt.Errorf("provision %s: %w", name, err)
	}
	cl.attest += timing.Total()
	cl.provisions++
	return c, nil
}

func (cl *cluster) close() {
	for i := len(cl.containers) - 1; i >= 0; i-- {
		cl.containers[i].Close()
	}
	cl.cas.Close()
}

// clocks reads the virtual clocks of cs.
func clocks(cs []*securetf.Container) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.Clock().Now()
	}
	return out
}

// makespan is the largest clock advance between two readings: the
// platforms run concurrently in the cost model, so the busiest one sets
// the virtual time of the work.
func makespan(before, after []time.Duration) time.Duration {
	var m time.Duration
	for i := range before {
		m = max(m, after[i]-before[i])
	}
	return m
}

func stats(cs []*securetf.Container) []securetf.EnclaveStats {
	out := make([]securetf.EnclaveStats, len(cs))
	for i, c := range cs {
		out[i] = c.EnclaveStats()
	}
	return out
}

// echoProbe measures the network shield in isolation: the same
// payload echoed between two attested containers over TLS and between
// two plain containers over TCP, both through the SCONE runtime. It
// returns the median extra record round trip and the median extra
// connection set-up (dial plus a one-byte echo) the shield costs.
func (cl *cluster) echoProbe(payload int, sp spanRef) (recordRTT, handshake time.Duration, err error) {
	var pair [2][2]*securetf.Container
	for i, attested := range []bool{true, false} {
		for j := range pair[i] {
			if pair[i][j], err = cl.launch(fmt.Sprintf("echo-%v-%d", attested, j), attested, false, sp); err != nil {
				return 0, 0, err
			}
		}
	}
	const dials, rounds = 8, 64
	var rtt, setup [2]time.Duration
	for i := range pair {
		srv, cli := pair[i][0], pair[i][1]
		ln, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer conn.Close()
					// The echo ends when the client closes its side.
					_, _ = io.Copy(conn, conn)
				}()
			}
		}()
		name := "netshield.echo." + []string{"tls", "plain"}[i]
		setup[i], rtt[i], err = echo(cli, ln.Addr().String(), payload, dials, rounds, sp, name)
		ln.Close()
		wg.Wait()
		if err != nil {
			return 0, 0, err
		}
	}
	return rtt[0] - rtt[1], setup[0] - setup[1], nil
}

// echo dials addr dials times, timing dial plus a one-byte echo, then
// echoes payload bytes rounds times on the last connection; it returns
// both medians.
func echo(c *securetf.Container, addr string, payload, dials, rounds int, sp spanRef, name string) (setup, rtt time.Duration, err error) {
	var setups, rtts []float64
	buf := make([]byte, payload)
	for d := 0; d < dials; d++ {
		s := sp.child(name + ".dial")
		conn, err := c.Dial("tcp", addr, "echo")
		if err != nil {
			return 0, 0, err
		}
		if err := roundTrip(conn, buf[:1]); err != nil {
			conn.Close()
			return 0, 0, err
		}
		setups = append(setups, float64(s.end()))
		if d == dials-1 {
			for r := 0; r < rounds; r++ {
				s := sp.child(name + ".record")
				if err := roundTrip(conn, buf); err != nil {
					conn.Close()
					return 0, 0, err
				}
				rtts = append(rtts, float64(s.end()))
			}
		}
		conn.Close()
	}
	return time.Duration(percentile(setups, 50)), time.Duration(percentile(rtts, 50)), nil
}

func roundTrip(conn net.Conn, buf []byte) error {
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("echo write: %w", err)
	}
	if _, err := io.ReadFull(conn, buf); err != nil {
		return fmt.Errorf("echo read: %w", err)
	}
	return nil
}
