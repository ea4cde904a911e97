package simnet

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/clock"
)

func pair(t *testing.T, nw *Network, host, address string) (client, server net.Conn) {
	t.Helper()
	ln, err := nw.Listen(address)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := nw.Host(host).DialContext(context.Background(), "tcp", address)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-accepted:
		return c, s
	case <-time.After(5 * time.Second):
		t.Fatal("accept never completed")
		return nil, nil
	}
}

func TestRoundTripAndClose(t *testing.T) {
	nw := New(nil)
	c, s := pair(t, nw, "client", "srv")
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(s, buf); err != nil || string(buf) != "hello" {
		t.Fatalf("read %q, %v", buf, err)
	}
	// Clean close: the peer drains in-flight bytes, then sees EOF.
	if _, err := s.Write([]byte("by")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	got := make([]byte, 2)
	if _, err := io.ReadFull(c, got); err != nil || string(got) != "by" {
		t.Fatalf("drain after close: %q, %v", got, err)
	}
	if _, err := c.Read(got); err != io.EOF {
		t.Fatalf("want EOF after drain, got %v", err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestDialFailures(t *testing.T) {
	nw := New(nil)
	if _, err := nw.Host("h").DialContext(context.Background(), "tcp", "nowhere"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("srv"); err == nil {
		t.Fatal("double bind succeeded")
	}
	nw.SetListenerDown("srv", true)
	if _, err := nw.Host("h").DialContext(context.Background(), "tcp", "srv"); err == nil {
		t.Fatal("dial to downed listener succeeded")
	}
	nw.SetListenerDown("srv", false)
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			c.Close()
		}
	}()
	if _, err := nw.Host("h").DialContext(context.Background(), "tcp", "srv"); err != nil {
		t.Fatalf("dial after listener resume: %v", err)
	}
	// Close releases the address for a restarted server.
	ln.Close()
	if _, err := nw.Listen("srv"); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestPartitionSeversAndRefuses(t *testing.T) {
	nw := New(nil)
	c, s := pair(t, nw, "client", "srv")
	nw.Partition("client", "srv")
	if _, err := c.Read(make([]byte, 1)); err == nil || err == io.EOF {
		t.Fatalf("read on partitioned conn: %v", err)
	}
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write on partitioned conn succeeded")
	}
	if _, err := nw.Host("client").DialContext(context.Background(), "tcp", "srv"); err == nil {
		t.Fatal("dial across partition succeeded")
	}
	nw.Heal("client", "srv")
	c2, s2 := pair(t, nw, "client", "srv2")
	defer c2.Close()
	defer s2.Close()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

func TestCutLinkIsOneShot(t *testing.T) {
	nw := New(nil)
	c, _ := pair(t, nw, "client", "srv")
	nw.CutLink("client", "srv")
	if _, err := c.Read(make([]byte, 1)); err == nil || err == io.EOF {
		t.Fatalf("read on cut conn: %v", err)
	}
	c2, s2 := pair(t, nw, "client", "srv2") // redial succeeds immediately
	defer c2.Close()
	defer s2.Close()
}

func TestDropAfterBytes(t *testing.T) {
	nw := New(nil)
	c, s := pair(t, nw, "client", "srv")
	nw.DropAfterBytes("client", "srv", 10)
	if n, err := c.Write([]byte("12345")); n != 5 || err != nil {
		t.Fatalf("first write: %d, %v", n, err)
	}
	// This write crosses byte 10: 5 bytes deliver, then the conn severs.
	n, err := c.Write([]byte("6789AB"))
	if n != 5 || !errors.Is(err, errSevered) {
		t.Fatalf("crossing write: %d, %v", n, err)
	}
	buf := make([]byte, 10)
	if _, err := io.ReadFull(s, buf); err == nil {
		t.Fatal("severed conn delivered beyond the cut")
	}
	// The trigger is one-shot: a new conn carries unlimited bytes.
	c2, s2 := pair(t, nw, "client", "srv2")
	defer c2.Close()
	defer s2.Close()
	if _, err := c2.Write(make([]byte, 1<<16)); err != nil {
		t.Fatalf("post-trigger write: %v", err)
	}
	_ = s2
}

func TestLatencyOnVirtualClock(t *testing.T) {
	clk := clock.NewVirtual()
	nw := New(clk)
	nw.SetLatency("client", "srv", 250*time.Millisecond)
	c, s := pair(t, nw, "client", "srv")
	defer c.Close()
	defer s.Close()
	if _, err := c.Write([]byte("delayed")); err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 7)
		if _, err := io.ReadFull(s, buf); err == nil {
			read <- buf
		}
	}()
	select {
	case <-read:
		t.Fatal("bytes arrived before the virtual latency elapsed")
	case <-time.After(50 * time.Millisecond):
	}
	clk.Advance(300 * time.Millisecond)
	select {
	case buf := <-read:
		if string(buf) != "delayed" {
			t.Fatalf("got %q", buf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bytes never arrived after advancing the clock")
	}
}

func TestReadDeadline(t *testing.T) {
	nw := New(nil)
	c, s := pair(t, nw, "client", "srv")
	defer c.Close()
	defer s.Close()
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout, got %v", err)
	}
}

// A conn wait cut short by data stops its timers: otherwise every blocked
// read or write would leave its deadline queued on the virtual clock, and
// AutoAdvance would leap to deadlines nobody waits on.
func TestConnWaitsStopTheirTimers(t *testing.T) {
	clk := clock.NewVirtual()
	nw := New(clk)
	nw.SetWriteLimit("client", "srv", 1)
	c, s := pair(t, nw, "client", "srv")
	defer c.Close()
	defer s.Close()
	blocked := func(base int) {
		t.Helper()
		if err := waitReal(5*time.Second, 1, func() bool { return clk.PendingTimers() > base }, func() error {
			return errors.New("the conn never armed its deadline")
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.SetReadDeadline(clk.Now().Add(time.Hour))
	c.SetWriteDeadline(clk.Now().Add(time.Hour))
	buf := make([]byte, 1)
	for i := 0; i < 100; i++ {
		// A read that blocks until the peer writes.
		base := clk.PendingTimers()
		read := make(chan error, 1)
		go func() { _, err := s.Read(buf); read <- err }()
		blocked(base)
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := <-read; err != nil {
			t.Fatalf("read %d: %v", i, err)
		}

		// A write that blocks on backpressure until the peer drains.
		if _, err := c.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		base = clk.PendingTimers()
		wrote := make(chan error, 1)
		go func() { _, err := c.Write([]byte{2}); wrote <- err }()
		blocked(base)
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Fatal(err)
		}
		if err := <-wrote; err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("%d timers queued after every wait ended in data, want 0", n)
	}
}
