// The leaf client: one leaf daemon's HTTP face as the head sees it. A
// leaf is any psd serving the standard read-only API — the head consumes
// /api/fleet (versioned JSON with an ETag) and proxies per-device
// drill-downs; leaves need no federation-specific code at all.

package federation

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/export"
	"repro/internal/fleet"
)

// maxFleetBody bounds how many bytes of /api/fleet body the head will
// read from one leaf — a corrupted or hostile leaf must not balloon the
// head's memory. 64 MiB is thousands of times a 10k-station body.
const maxFleetBody = 64 << 20

// leafClient fetches one leaf's fleet view over its existing HTTP API.
type leafClient struct {
	name string
	url  string // base URL, no trailing slash
	http *http.Client

	// body is the read buffer of the last /api/fleet response, reused by
	// the next poll. The head runs one poll per leaf at a time, and the
	// decoded view copies what it keeps, so the buffer is free again
	// once fetchFleet returns.
	body []byte
}

// fetchFleet GETs the leaf's /api/fleet. etag, when non-empty, rides as
// If-None-Match: a quiet leaf answers 304 with no body and fetchFleet
// returns notModified with a nil view. prev is the leaf's previous view,
// whose strings and channel lists the new one shares where unchanged
// (see export.DecodeFleetJSON); it is only read. A decoded body whose
// schema differs from the head's own export.FleetSchemaVersion is an
// error — leaf/head version skew fails loudly at the poll rather than
// misrendering stations.
func (c *leafClient) fetchFleet(ctx context.Context, etag string, prev []fleet.Status) (view *export.FleetJSON, newETag string, notModified bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/api/fleet", nil)
	if err != nil {
		return nil, "", false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer func() {
		// Drain so the transport can reuse the connection.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, etag, true, nil
	case http.StatusOK:
	default:
		return nil, "", false, fmt.Errorf("leaf %s: /api/fleet: status %d", c.name, resp.StatusCode)
	}
	c.body, err = readBody(c.body[:0], resp.Body, resp.ContentLength)
	if err != nil {
		return nil, "", false, fmt.Errorf("leaf %s: /api/fleet: %w", c.name, err)
	}
	v := new(export.FleetJSON)
	if err := export.DecodeFleetJSON(c.body, v, prev); err != nil {
		return nil, "", false, fmt.Errorf("leaf %s: %w", c.name, err)
	}
	if v.Schema != export.FleetSchemaVersion {
		return nil, "", false, fmt.Errorf("leaf %s: schema skew: leaf serves %d, head wants %d",
			c.name, v.Schema, export.FleetSchemaVersion)
	}
	return v, resp.Header.Get("ETag"), false, nil
}

// readBody appends at most maxFleetBody bytes of r to buf, growing it
// once up front when the response declares its length.
func readBody(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	if declared > 0 && declared <= maxFleetBody && int64(cap(buf)) < declared {
		buf = make([]byte, 0, declared)
	}
	lr := io.LimitedReader{R: r, N: maxFleetBody}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// trimURL normalises a leaf base URL: a bare host:port gains the http
// scheme, trailing slashes drop.
func trimURL(u string) string {
	u = strings.TrimRight(u, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}
