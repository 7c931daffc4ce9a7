package cluster

import (
	"net"
	"testing"
	"time"
)

// TestFrontDrainClosesUnusedConnections: a connection that never sends
// a request must not hold the front door's drain. net/http's Shutdown
// alone would wait until it is 5 s old.
func TestFrontDrainClosesUnusedConnections(t *testing.T) {
	f, _ := testFleet(t, 1, func(c *Config) { c.DrainTimeout = 10 * time.Second })
	c, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for deadline := time.Now().Add(5 * time.Second); f.unused.Len() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the front never accepted the connection")
		}
	}
	began := time.Now()
	if err := f.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(began); d > 2*time.Second {
		t.Fatalf("drain took %s with an unused connection open", d)
	}
}
