package hbnet

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
)

// A hello whose length prefix claims 16 MiB is refused before the server
// sizes a buffer for it: the shell reads the hello under serverCore's cap,
// so the handshake of a hostile prefix allocates next to nothing and ends
// at once instead of holding the buffer until the handshake timeout.
func TestHelloLengthPrefixIsCapped(t *testing.T) {
	srv := NewServer()
	server, client := net.Pipe()
	defer client.Close()
	go client.Write([]byte{0x00, 0xff, 0xff, 0xff})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := srv.serveConn(context.Background(), server)
	runtime.ReadMemStats(&after)
	server.Close()
	if err == nil {
		t.Fatal("a hello claiming 16 MiB was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("refusing the hello allocated %d bytes, want < 64 KiB (%v)", grew, err)
	}
}

// A welcome whose length prefix claims 16 MiB is refused the same way: the
// client reads the answer to its hello under the cap that the longest
// error frame a server sends fits, so a hostile server cannot make every
// dial allocate the frame cap.
func TestWelcomeLengthPrefixIsCapped(t *testing.T) {
	c := newTestClient("app", 0, 1)
	server, client := net.Pipe()
	defer server.Close()
	go func() {
		readFrameReuse(server, nil, maxHelloPayload)
		server.Write([]byte{0x00, 0xff, 0xff, 0xff})
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.handshake(client)
	runtime.ReadMemStats(&after)
	client.Close()
	if err == nil {
		t.Fatal("a welcome claiming 16 MiB was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("refusing the welcome allocated %d bytes, want < 64 KiB (%v)", grew, err)
	}
}

// The longest error a server sends in answer to a hello — an unknown feed
// whose name is as long as a hello may carry — still fits the client's cap.
func TestRefusalFitsWelcomeCap(t *testing.T) {
	var sc serverCore
	_, refusal, err := sc.hello(frameHello, appendHello(nil, strings.Repeat("\xff", maxFeedName), 0)[1:], nil)
	if err == nil {
		t.Fatal("an unknown feed was accepted")
	}
	ftype, body, _, err := readFrameReuse(bytes.NewReader(refusal), nil, maxWelcomePayload)
	if err != nil || ftype != frameError {
		t.Fatalf("refusal unreadable under the welcome cap: type=%#x err=%v", ftype, err)
	}
	if msg, _ := decodeError(body); !strings.HasPrefix(msg, "hbnet: unknown feed") {
		t.Fatalf("refusal says %q", msg)
	}
}
