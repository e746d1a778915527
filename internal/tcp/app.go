package tcp

// App supplies data to a Sender and observes acknowledgment progress.
// Implementations model bulk transfers and fixed-size downloads; a web
// object is one SizedApp on a connection of its own.
type App interface {
	// Available reports how many segments at and beyond seq are ready
	// to send right now.
	Available(seq int) int
	// Acked notifies the app of cumulative acknowledgment progress
	// (all segments below cum have been delivered).
	Acked(cum int)
}

// BulkApp is an unbounded source: the flow always has data, modeling
// the long-running download flows of §2.3/§5.1.
type BulkApp struct{}

// Available implements App.
func (BulkApp) Available(seq int) int { return 1 << 30 }

// Acked implements App.
func (BulkApp) Acked(int) {}

// SizedApp transfers exactly Total segments and invokes OnComplete once
// when the last segment is cumulatively acknowledged.
type SizedApp struct {
	Total      int
	OnComplete func()
	done       bool
}

// Available implements App.
func (a *SizedApp) Available(seq int) int {
	if seq >= a.Total {
		return 0
	}
	return a.Total - seq
}

// Acked implements App.
func (a *SizedApp) Acked(cum int) {
	if !a.done && cum >= a.Total {
		a.done = true
		if a.OnComplete != nil {
			a.OnComplete()
		}
	}
}

// Done reports whether the transfer completed.
func (a *SizedApp) Done() bool { return a.done }
