package hbnet

import (
	"context"
	"net"
	"runtime"
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
