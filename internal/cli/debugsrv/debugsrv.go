// Package debugsrv is the daemons' opt-in profiling endpoint: the
// -debug-addr flag and a server for runtime/pprof's profiles at the
// URLs net/http/pprof uses, so go tool pprof can fetch them from a
// live daemon.
//
// It speaks just enough HTTP/1.x for go tool pprof and curl, one GET
// per connection, instead of linking net/http: with net/http/pprof
// the four daemons grew from ~4 MB to ~9.5 MB each, and their extra
// link time slowed every test run that builds ./cmd/....
package debugsrv

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/url"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// Flag registers the -debug-addr flag on the command line's flag set.
// Hand its parsed value to Serve.
func Flag() *string {
	return flag.String("debug-addr", "", "serve pprof profiles under /debug/pprof/ on this address, e.g. 127.0.0.1:6060 (empty disables)")
}

// Serve answers profile requests on addr in the background:
// /debug/pprof/ lists the profiles, /debug/pprof/NAME?debug=N writes
// one (heap, goroutine, ...), and /debug/pprof/profile?seconds=N
// records CPU for N seconds (default 30). An empty addr serves nothing
// and returns a nil listener; closing the listener stops the server.
func Serve(addr string) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugsrv: listen: %w", err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // the listener was closed
			}
			go serve(c)
		}
	}()
	return ln, nil
}

// serve answers one request on c and closes it.
func serve(c net.Conn) {
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(c)
	line, err := r.ReadString('\n')
	if err != nil {
		return
	}
	// Read the headers to the blank line, so closing the connection
	// does not reset it with request bytes still unread.
	for {
		h, err := r.ReadString('\n')
		if err != nil || strings.TrimSpace(h) == "" {
			break
		}
	}
	status, body := respond(strings.Fields(line))
	fmt.Fprintf(c, "HTTP/1.0 %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", status, len(body))
	c.Write(body)
}

// respond maps a request line's fields (method, target, version) to a
// status and body.
func respond(req []string) (string, []byte) {
	if len(req) < 2 || req[0] != "GET" {
		return "405 Method Not Allowed", []byte("GET only\n")
	}
	u, err := url.ParseRequestURI(req[1])
	if err != nil {
		return "400 Bad Request", []byte(err.Error() + "\n")
	}
	name, ok := strings.CutPrefix(u.Path, "/debug/pprof/")
	if !ok {
		return "404 Not Found", []byte("profiles are under /debug/pprof/\n")
	}
	var b bytes.Buffer
	switch name {
	case "":
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(&b, "%d\t%s\n", p.Count(), p.Name())
		}
		fmt.Fprintln(&b, "-\tprofile (CPU; ?seconds=N, default 30)")
	case "profile":
		secs, err := strconv.Atoi(u.Query().Get("seconds"))
		if err != nil || secs <= 0 {
			secs = 30
		}
		if err := pprof.StartCPUProfile(&b); err != nil {
			return "409 Conflict", []byte(err.Error() + "\n")
		}
		time.Sleep(time.Duration(secs) * time.Second)
		pprof.StopCPUProfile()
	default:
		p := pprof.Lookup(name)
		if p == nil {
			return "404 Not Found", []byte("no profile " + strconv.Quote(name) + "\n")
		}
		debug, _ := strconv.Atoi(u.Query().Get("debug"))
		if err := p.WriteTo(&b, debug); err != nil {
			return "500 Internal Server Error", []byte(err.Error() + "\n")
		}
	}
	return "200 OK", b.Bytes()
}
