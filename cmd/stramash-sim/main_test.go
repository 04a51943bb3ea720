package main

import (
	"strings"
	"testing"
)

func TestModeError(t *testing.T) {
	cases := []struct {
		name                                    string
		fileIO, prod                            bool
		cluster, tenants, clusterReqs, prodReqs int
		want                                    string // "" = accepted
	}{
		{name: "default NPB job", clusterReqs: 200, prodReqs: 200},
		{name: "fileio", fileIO: true},
		{name: "prod", prod: true, clusterReqs: 200, prodReqs: 200},
		{name: "cluster", cluster: 2, clusterReqs: 120},
		{name: "tenants", tenants: 3},
		{name: "negative cluster", cluster: -1, want: "-cluster -1"},
		{name: "negative tenants", tenants: -1, want: "-tenants -1"},
		{name: "negative cluster requests", cluster: 2, clusterReqs: -5, want: "-cluster-requests -5"},
		{name: "negative prod requests", prod: true, prodReqs: -1, want: "-prod-requests -1"},
		{name: "prod and cluster", prod: true, cluster: 2, want: "-prod and -cluster"},
		{name: "fileio, prod and cluster", fileIO: true, prod: true, cluster: 2, want: "-fileio and -prod and -cluster"},
		{name: "cluster and tenants", cluster: 1, tenants: 2, want: "-cluster and -tenants"},
	}
	for _, c := range cases {
		err := modeError(c.fileIO, c.prod, c.cluster, c.tenants, c.clusterReqs, c.prodReqs)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want it to name %q", c.name, err, c.want)
		}
	}
}
