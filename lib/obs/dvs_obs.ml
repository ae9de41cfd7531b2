module Json = Json
module Metrics = Metrics
module Trace = Trace
module Schema = Schema

type t = { metrics : Metrics.t; trace : Trace.t }

let create ?trace_capacity () =
  { metrics = Metrics.create ();
    trace = Trace.create ?capacity:trace_capacity () }

let metrics_only () = { metrics = Metrics.create (); trace = Trace.disabled }

let disabled = { metrics = Metrics.disabled; trace = Trace.disabled }

let enabled t = Metrics.enabled t.metrics || Trace.enabled t.trace

let metrics t = t.metrics

let trace t = t.trace
