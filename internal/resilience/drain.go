package resilience

import (
	"net"
	"net/http"
	"sync"
)

// UnusedConns makes an http.Server's Shutdown close the connections
// that never carried a request (http.StateNew), such as a spare
// connection a client's transport dialed. Shutdown alone counts such a
// connection as active until it is 5 s old, so one of them would hold
// a graceful drain past a shorter deadline. The zero value is ready;
// Install it on a server before Serve.
type UnusedConns struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Install sets srv's ConnState hook to track never-used connections
// and registers a shutdown hook that closes them. Shutdown runs the
// hook after closing the listener; such a connection has no request
// to finish, and a draining server would refuse one.
func (u *UnusedConns) Install(srv *http.Server) {
	srv.ConnState = u.track
	srv.RegisterOnShutdown(u.closeAll)
}

// Len returns the number of connections that have not carried a
// request yet.
func (u *UnusedConns) Len() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.conns)
}

func (u *UnusedConns) track(c net.Conn, st http.ConnState) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if st == http.StateNew {
		if u.conns == nil {
			u.conns = make(map[net.Conn]struct{})
		}
		u.conns[c] = struct{}{}
	} else {
		delete(u.conns, c)
	}
}

func (u *UnusedConns) closeAll() {
	u.mu.Lock()
	defer u.mu.Unlock()
	for c := range u.conns {
		c.Close()
	}
}
