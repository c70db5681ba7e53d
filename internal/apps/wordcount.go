package apps

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"cloudburst/internal/gr"
)

func init() {
	gr.Register("wordcount", func(params map[string]string) (gr.App, error) {
		return NewWordCount(Params(params))
	})
}

// WordCount counts fixed-width text records — the quickstart
// application and the Map-Reduce comparison workload (word count is
// the canonical combiner example, which makes it the natural
// generalized-reduction vs. Map-Reduce ablation subject).
type WordCount struct {
	// Width is the record byte width; words are space-padded.
	Width int
	// Cost is the modeled per-unit compute time.
	Cost time.Duration
}

// NewWordCount builds a WordCount app from parameters width, cost.
func NewWordCount(p Params) (*WordCount, error) {
	width, err := p.Int("width", 12)
	if err != nil {
		return nil, err
	}
	cost, err := p.Duration("cost", 200*time.Nanosecond)
	if err != nil {
		return nil, err
	}
	if width <= 0 {
		return nil, fmt.Errorf("apps: wordcount needs positive width, got %d", width)
	}
	return &WordCount{Width: width, Cost: cost}, nil
}

// Name implements gr.App.
func (a *WordCount) Name() string { return "wordcount" }

// RecordSize implements gr.App.
func (a *WordCount) RecordSize() int { return a.Width }

// UnitCost implements gr.App.
func (a *WordCount) UnitCost() time.Duration { return a.Cost }

// NewReduction implements gr.App.
func (a *WordCount) NewReduction() gr.Reduction { return &wordCountRed{c: gr.NewCounter()} }

// Summarize implements gr.Summarizer.
func (a *WordCount) Summarize(red gr.Reduction) (string, error) {
	r, ok := red.(*wordCountRed)
	if !ok {
		return "", fmt.Errorf("apps: wordcount cannot summarize %T", red)
	}
	var total int64
	for _, n := range r.c.Counts {
		total += n
	}
	return fmt.Sprintf("wordcount: %d words, %d distinct, top=%v", total, len(r.c.Counts), r.c.Top(3)), nil
}

// wordCountRed counts words in a gr.Counter.
type wordCountRed struct {
	c *gr.Counter
}

func (r *wordCountRed) Update(unit []byte) error {
	word := string(bytes.TrimRight(unit, " "))
	if word != "" {
		r.c.Inc(word, 1)
	}
	return nil
}

func (r *wordCountRed) Merge(other gr.Reduction) error {
	o, ok := other.(*wordCountRed)
	if !ok {
		return fmt.Errorf("apps: wordcount merge with %T", other)
	}
	return r.c.Merge(o.c)
}

func (r *wordCountRed) Encode(w io.Writer) error  { return r.c.Encode(w) }
func (r *wordCountRed) Decode(rd io.Reader) error { return r.c.Decode(rd) }
func (r *wordCountRed) Bytes() int                { return r.c.Bytes() }

// Counts exposes the merged counter for result inspection.
func (r *wordCountRed) Counts() map[string]int64 { return r.c.Counts }
