package service

import (
	"net"
	"testing"
	"time"
)

// TestDrainClosesUnusedConnections: a connection that never sends a
// request (a client transport's spare dial) must not hold the drain.
// net/http's Shutdown alone would wait until it is 5 s old and fail the
// drain with its deadline.
func TestDrainClosesUnusedConnections(t *testing.T) {
	s := startService(t, nil)
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if s.unused.Len() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never accepted the connection")
		}
	}
	began := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(began); d > 2*time.Second {
		t.Fatalf("drain took %s with an unused connection open", d)
	}
}
