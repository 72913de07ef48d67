package rpc

import "time"

// SetBackTimeout shortens the stream carrier's server-to-client call bound
// for an external test and returns the function that restores it.
func SetBackTimeout(d time.Duration) (restore func()) {
	old := backTimeout
	backTimeout = d
	return func() { backTimeout = old }
}
