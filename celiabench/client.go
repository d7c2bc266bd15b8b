package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// response is what the client kept of one reply; checking happens
// after the measured window so it costs the window nothing.
type response struct {
	Sent    bool
	Err     error
	Status  int
	XIndex  string
	Body    []byte
	Start   time.Time
	Latency time.Duration // send to last body byte
}

// replay sends reqs to the server over conns closed-loop connections:
// each connection takes the next unsent request only after its
// previous response's last byte. It stops taking requests at stopAt.
// It returns the responses by request index and the wall time from the
// first send to the last response.
func replay(base string, reqs []Request, conns int, stopAt time.Time) ([]response, time.Duration) {
	out := make([]response, len(reqs))
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		// Open the connection before the window starts.
		if resp, err := clients[i].Get(base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || time.Now().After(stopAt) {
					return
				}
				out[i] = send(c, base, &reqs[i])
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	return out, wall
}

func send(c *http.Client, base string, r *Request) response {
	t0 := time.Now()
	resp, err := c.Post(base+r.Path(), "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return response{Sent: true, Err: err, Start: t0, Latency: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{
		Sent:    true,
		Err:     err,
		Status:  resp.StatusCode,
		XIndex:  resp.Header.Get("X-Index"),
		Body:    body,
		Start:   t0,
		Latency: time.Since(t0),
	}
}
