package core

import (
	"strings"
	"testing"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/yaml"
)

const leanNginx = `apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
`

func TestUniqueNameFor(t *testing.T) {
	got := UniqueNameFor(netem.ParseHostPort("203.0.113.1:80"))
	if got != "edge-203-0-113-1-80" {
		t.Errorf("UniqueNameFor = %q", got)
	}
	if UniqueNameFor(netem.ParseHostPort("203.0.113.1:80")) == UniqueNameFor(netem.ParseHostPort("203.0.113.1:81")) {
		t.Error("different ports collide")
	}
}

func TestAnnotateSetsAllRequiredFields(t *testing.T) {
	a, err := Annotate(leanNginx, AnnotateOptions{UniqueName: "edge-svc-1", ServicePort: 80, SchedulerName: "my-scheduler"})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := yaml.Unmarshal(a.DeploymentYAML)
	if err != nil {
		t.Fatalf("annotated deployment does not parse: %v\n%s", err, a.DeploymentYAML)
	}
	d := doc.(map[string]any)
	meta := d["metadata"].(map[string]any)
	if meta["name"] != "edge-svc-1" {
		t.Errorf("name = %v", meta["name"])
	}
	labels := meta["labels"].(map[string]any)
	if labels[EdgeServiceLabel] != "edge-svc-1" {
		t.Errorf("edge.service label = %v", labels[EdgeServiceLabel])
	}
	spec := d["spec"].(map[string]any)
	if spec["replicas"] != int64(0) {
		t.Errorf("replicas = %v, want scale-to-zero", spec["replicas"])
	}
	match := spec["selector"].(map[string]any)["matchLabels"].(map[string]any)
	if match["app"] != "edge-svc-1" || match[EdgeServiceLabel] != "edge-svc-1" {
		t.Errorf("matchLabels = %v", match)
	}
	tmpl := spec["template"].(map[string]any)
	tmplLabels := tmpl["metadata"].(map[string]any)["labels"].(map[string]any)
	if tmplLabels["app"] != "edge-svc-1" {
		t.Errorf("template labels = %v", tmplLabels)
	}
	if tmpl["spec"].(map[string]any)["schedulerName"] != "my-scheduler" {
		t.Errorf("schedulerName missing: %v", tmpl["spec"])
	}
}

func TestAnnotateGeneratesService(t *testing.T) {
	a, err := Annotate(leanNginx, AnnotateOptions{UniqueName: "edge-svc-1", ServicePort: 80})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := yaml.Unmarshal(a.ServiceYAML)
	if err != nil {
		t.Fatalf("generated service does not parse: %v\n%s", err, a.ServiceYAML)
	}
	s := doc.(map[string]any)
	if s["kind"] != "Service" {
		t.Errorf("kind = %v", s["kind"])
	}
	spec := s["spec"].(map[string]any)
	ports := spec["ports"].([]any)[0].(map[string]any)
	if ports["port"] != int64(80) || ports["targetPort"] != int64(80) || ports["protocol"] != "TCP" {
		t.Errorf("ports = %v", ports)
	}
	sel := spec["selector"].(map[string]any)
	if sel[EdgeServiceLabel] != "edge-svc-1" {
		t.Errorf("selector = %v", sel)
	}
}

func TestAnnotateKeepsDeveloperService(t *testing.T) {
	withService := leanNginx + `---
apiVersion: v1
kind: Service
spec:
  ports:
  - port: 8080
    targetPort: 80
`
	a, err := Annotate(withService, AnnotateOptions{UniqueName: "edge-x", ServicePort: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.ServiceYAML, "8080") {
		t.Errorf("developer's service port lost:\n%s", a.ServiceYAML)
	}
	if !strings.Contains(a.ServiceYAML, "edge-x") {
		t.Errorf("developer's service not renamed:\n%s", a.ServiceYAML)
	}
}

func TestAnnotateSpecDerivation(t *testing.T) {
	multi := `spec:
  template:
    spec:
      volumes:
      - name: www
      containers:
      - image: nginx:1.23.2
        ports:
        - containerPort: 80
      - name: app
        image: josefhammer/env-writer-py
`
	a, err := Annotate(multi, AnnotateOptions{UniqueName: "edge-combo", ServicePort: 80})
	if err != nil {
		t.Fatal(err)
	}
	spec := a.Spec
	if spec.Name != "edge-combo" || len(spec.Containers) != 2 {
		t.Fatalf("spec = %+v", spec)
	}
	// The unnamed container gets a generated name.
	if spec.Containers[0].Name == "" || spec.Containers[0].Image != "nginx:1.23.2" || spec.Containers[0].Port != 80 {
		t.Errorf("container 0 = %+v", spec.Containers[0])
	}
	if spec.Containers[1].Port != 0 {
		t.Errorf("sidecar has port %d", spec.Containers[1].Port)
	}
	if len(spec.Volumes) != 1 || spec.Volumes[0] != "www" {
		t.Errorf("volumes = %v", spec.Volumes)
	}
	if spec.ServicePort != 80 {
		t.Errorf("service port = %d", spec.ServicePort)
	}
}

func TestAnnotateErrors(t *testing.T) {
	cases := map[string]struct {
		def  string
		opts AnnotateOptions
	}{
		"no unique name": {leanNginx, AnnotateOptions{}},
		"no containers": {`spec:
  template:
    spec:
      containers: []
`, AnnotateOptions{UniqueName: "x"}},
		"missing image": {`spec:
  template:
    spec:
      containers:
      - name: web
`, AnnotateOptions{UniqueName: "x"}},
		"no port anywhere": {`spec:
  template:
    spec:
      containers:
      - image: something
`, AnnotateOptions{UniqueName: "x"}},
		"not yaml":      {"\tbroken", AnnotateOptions{UniqueName: "x"}},
		"no deployment": {"", AnnotateOptions{UniqueName: "x"}},
	}
	for name, tc := range cases {
		if _, err := Annotate(tc.def, tc.opts); err == nil {
			t.Errorf("%s: annotation succeeded", name)
		}
	}
}

func TestAnnotateIdempotentOnItsOwnOutput(t *testing.T) {
	a, err := Annotate(leanNginx, AnnotateOptions{UniqueName: "edge-a", ServicePort: 80})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Annotate(a.DeploymentYAML, AnnotateOptions{UniqueName: "edge-a", ServicePort: 80})
	if err != nil {
		t.Fatalf("re-annotation failed: %v", err)
	}
	if b.Spec.Name != a.Spec.Name || len(b.Spec.Containers) != len(a.Spec.Containers) {
		t.Errorf("re-annotation diverged: %+v vs %+v", b.Spec, a.Spec)
	}
}
