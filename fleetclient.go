package relpipe

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"
)

// FleetClient is a minimal Go client for the service's fleet API
// (POST/GET/DELETE /v1/fleet/deployments, see API.md). The zero value
// is not usable; set BaseURL (e.g. "http://localhost:8080"). It exists
// so programs — relpipe fleet among them — register deployments, feed
// telemetry and watch the controller's decision stream with the same
// DTOs the server uses.
type FleetClient struct {
	// BaseURL is the service root, without the /v1 prefix.
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil. Watch holds
	// its connection open indefinitely, so a client with a short
	// Timeout will sever long watches.
	HTTPClient *http.Client
}

func (c *FleetClient) api() transport { return newTransport(c.BaseURL, c.HTTPClient, "fleet") }

// deployPath builds a /v1/fleet/deployments/{id}[/suffix] path with the
// id path-escaped (ids are caller-chosen strings).
func deployPath(id, suffix string) string {
	return "/v1/fleet/deployments/" + url.PathEscape(id) + suffix
}

// Register registers a deployment for continuous adaptation and
// returns its initial status.
func (c *FleetClient) Register(ctx context.Context, req FleetRegisterRequest) (FleetDeployment, error) {
	var st FleetDeployment
	err := c.api().call(ctx, http.MethodPost, "/v1/fleet/deployments", req, &st, http.StatusCreated)
	return st, err
}

// Status fetches one deployment snapshot.
func (c *FleetClient) Status(ctx context.Context, id string) (FleetDeployment, error) {
	var st FleetDeployment
	err := c.api().call(ctx, http.MethodGet, deployPath(id, ""), nil, &st, http.StatusOK)
	return st, err
}

// List fetches every deployment in registration order.
func (c *FleetClient) List(ctx context.Context) ([]FleetDeployment, error) {
	var lr FleetListResponse
	if err := c.api().call(ctx, http.MethodGet, "/v1/fleet/deployments", nil, &lr, http.StatusOK); err != nil {
		return nil, err
	}
	return lr.Deployments, nil
}

// Feed sends telemetry events; they take effect at the controller's
// next tick. It returns how many events were accepted.
func (c *FleetClient) Feed(ctx context.Context, id string, events []FleetEvent) (int, error) {
	var ack FleetEventsResponse
	err := c.api().call(ctx, http.MethodPost, deployPath(id, "/events"),
		FleetEventsRequest{Events: events}, &ack, http.StatusAccepted)
	return ack.Accepted, err
}

// Deregister removes a deployment and returns its final snapshot.
func (c *FleetClient) Deregister(ctx context.Context, id string) (FleetDeployment, error) {
	var st FleetDeployment
	err := c.api().call(ctx, http.MethodDelete, deployPath(id, ""), nil, &st, http.StatusOK)
	return st, err
}

// Fleet watch termination causes beyond context cancellation.
var (
	// ErrFleetShutdown is returned by Watch when the server begins
	// shutting down (deployment state stays queryable until it exits).
	ErrFleetShutdown = errors.New("relpipe: server shutting down")
	// ErrFleetDeregistered is returned by Watch when the watched
	// deployment is removed.
	ErrFleetDeregistered = errors.New("relpipe: deployment deregistered")
)

// Watch streams a deployment's decision log over SSE: status receives
// the initial snapshot (and the final one on server shutdown), fn
// every decision with sequence number > after (0 streams the whole
// retained log). It returns when the deployment is deregistered
// (ErrFleetDeregistered), the server drains (ErrFleetShutdown) or ctx
// is cancelled.
func (c *FleetClient) Watch(ctx context.Context, id string, after uint64,
	status func(FleetDeployment), fn func(FleetDecision)) error {
	path := deployPath(id, "/events")
	if after > 0 {
		path += "?after=" + strconv.FormatUint(after, 10)
	}
	return c.api().stream(ctx, path, func(event string, data []byte) (bool, error) {
		switch event {
		case "status", "shutdown":
			var st FleetDeployment
			if err := json.Unmarshal(data, &st); err != nil {
				return true, err
			}
			if status != nil {
				status(st)
			}
			if event == "shutdown" {
				return true, ErrFleetShutdown
			}
		case "decision":
			var d FleetDecision
			if err := json.Unmarshal(data, &d); err != nil {
				return true, err
			}
			if fn != nil {
				fn(d)
			}
		case "deregistered":
			return true, ErrFleetDeregistered
		}
		return false, nil
	})
}
