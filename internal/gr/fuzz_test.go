package gr

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzCombinerDecode feeds arbitrary bytes to the Counter and Concat
// decoders, which read reduction objects off the wire. Corrupt input
// must error, never panic or allocate past what arrived; accepted
// input must re-encode to bytes that decode to the same object.
func FuzzCombinerDecode(f *testing.F) {
	c := NewCounter()
	c.Inc("alpha", 3)
	c.Inc("beta", -1)
	c.Inc("", 2)
	var cat Concat
	cat.Append([]byte("one"))
	cat.Append(nil)
	cat.Append(bytes.Repeat([]byte{9}, 5000))
	for _, obj := range []interface{ Encode(io.Writer) error }{c, NewCounter(), &cat, new(Concat)} {
		var b bytes.Buffer
		if err := obj.Encode(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var got Counter
		if got.Decode(bytes.NewReader(data)) == nil {
			var b bytes.Buffer
			if err := got.Encode(&b); err != nil {
				t.Fatal(err)
			}
			var again Counter
			if err := again.Decode(&b); err != nil {
				t.Fatalf("re-encoded counter failed to decode: %v", err)
			}
			if !reflect.DeepEqual(got.Counts, again.Counts) {
				t.Fatalf("counter round trip not stable: %v vs %v", got.Counts, again.Counts)
			}
		}
		var items Concat
		if items.Decode(bytes.NewReader(data)) == nil {
			var b bytes.Buffer
			if err := items.Encode(&b); err != nil {
				t.Fatal(err)
			}
			var again Concat
			if err := again.Decode(&b); err != nil {
				t.Fatalf("re-encoded concat failed to decode: %v", err)
			}
			if !reflect.DeepEqual(items.Items, again.Items) {
				t.Fatalf("concat round trip not stable: %q vs %q", items.Items, again.Items)
			}
		}
	})
}
