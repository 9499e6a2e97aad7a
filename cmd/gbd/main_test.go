package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the daemon's server bounds header reads, whole
// request reads, and idle keep-alives, and leaves writes unbounded so
// long SSE streams are not cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer(h)
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.ReadTimeout != readTimeout || srv.ReadTimeout <= 0 {
		t.Errorf("ReadTimeout = %v, want %v", srv.ReadTimeout, readTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (streams run for minutes)", srv.WriteTimeout)
	}
}
