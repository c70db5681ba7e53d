package debugsrv

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServe(t *testing.T) {
	if ln, err := Serve(""); ln != nil || err != nil {
		t.Fatalf("empty address served: %v, %v", ln, err)
	}
	ln, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, c := range []struct {
		path   string
		status int
		want   string
	}{
		{"/debug/pprof/", http.StatusOK, "goroutine"},
		{"/debug/pprof/goroutine?debug=1", http.StatusOK, "goroutine profile: total"},
		{"/debug/pprof/heap", http.StatusOK, "\x1f\x8b"}, // gzipped protobuf, what go tool pprof reads
		{"/debug/pprof/profile?seconds=1", http.StatusOK, "\x1f\x8b"},
		{"/debug/pprof/nosuch", http.StatusNotFound, "nosuch"},
		{"/elsewhere", http.StatusNotFound, ""},
	} {
		resp, err := http.Get("http://" + ln.Addr().String() + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status || !strings.Contains(string(body), c.want) {
			t.Errorf("GET %s: %s, %d bytes %.40q", c.path, resp.Status, len(body), body)
		}
	}
}
