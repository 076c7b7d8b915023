package serve

import "time"

// SetStreamWindow replaces the event streams' flush window of s; call it
// before s serves a stream.
func SetStreamWindow(s *Server, d time.Duration) { s.window = d }

// SetStreamWakeHook makes every event stream writer of s report each of
// its wake-ups to hook, with the cause: "event", "timer", "bell", "done"
// or "stop". Call it before s serves a stream; hook runs on the writer's
// goroutine.
func SetStreamWakeHook(s *Server, hook func(cause string)) { s.wakeHook = hook }
