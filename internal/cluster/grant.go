package cluster

import (
	"math"
	"time"
)

// siteLedger is the head's record of one registered master: what the
// grant cap and the elastic feed know about the site. The head keeps
// one per site under its mutex.
type siteLedger struct {
	joined  time.Time // registration
	granted int       // jobs granted this run
	stolen  int       // of which stolen (data homed at another site)
	// progress is the site's latest Progress gauge (cumulative
	// completions, never lowered) and gaugeAt when it arrived.
	progress int
	gaugeAt  time.Time
	// out marks a site that delivered its result or was lost: it no
	// longer competes for jobs.
	out bool
}

// rate is the site's measured completion rate in jobs per second of
// clock wall time since registration; 0 before its first completion or
// when no time has passed. The clock scale cancels in every ratio of
// rates, so the cap means the same on a scaled and an instant clock.
func (l *siteLedger) rate() float64 {
	d := l.gaugeAt.Sub(l.joined)
	if l.progress <= 0 || d <= 0 {
		return 0
	}
	return float64(l.progress) / d.Seconds()
}

// outstanding is the site's granted jobs not yet completed, with its
// last gauge advanced at its own rate to now (floored at 0).
func (l *siteLedger) outstanding(now time.Time) float64 {
	done := float64(l.progress) + l.rate()*max(0, now.Sub(l.gaugeAt).Seconds())
	return max(0, float64(l.granted)-done)
}

// grantCap returns how many of limit jobs site may be granted now, so
// that no site holds more of the remaining work than its measured
// throughput share: with U unassigned jobs and O the sites'
// outstanding jobs, site s may hold ceil(r_s/Σr · (U + ΣO)), and is
// granted that less what it already holds, clamped to [0, limit]. The
// sites then finish together instead of one idling while another
// works off a last full batch (the pooling balance the paper relies
// on, judged by predicted finish as LATE does rather than by who asks).
//
// The cap applies only when at least two live sites have a rate, the
// requester among them, and some other live site has already been
// granted stolen work: only then does the thief's measured rate
// include the cost of its remote fetches, which is what the jobs
// moved to it at the tail will pay. Otherwise limit is returned.
func grantCap(sites map[string]*siteLedger, site string, unassigned, limit int, now time.Time) int {
	self := sites[site]
	if unassigned <= 0 {
		return limit
	}
	rSelf := self.rate()
	if rSelf == 0 {
		return limit
	}
	sumR, work := rSelf, float64(unassigned)
	rated, thief := 1, false
	for s, l := range sites {
		if s == site || l.out {
			continue
		}
		thief = thief || l.stolen > 0
		if r := l.rate(); r > 0 {
			sumR += r
			work += l.outstanding(now)
			rated++
		}
	}
	if rated < 2 || !thief {
		return limit
	}
	held := max(0, self.granted-self.progress)
	work += float64(held)
	return min(limit, max(0, int(math.Ceil(rSelf/sumR*work))-held))
}
