(* The measurement rig shared by every workload: both clocks, the counting
   event loop, percentiles, snapshots of the layers' public counters, and
   the outcome record each run prints as one JSON line. It drives the
   libraries from outside only — nothing here reaches into their state. *)

open Simcore
open Blobcr

(* ------------------------------------------------------------------ *)
(* Clocks *)

(* lint: allow wall-clock — the benchmark measures what the simulator costs *)
let wall () = Unix.gettimeofday ()

(* Taken while this module initializes, before any workload code runs:
   set-up time is measured from here. *)
let process_start = wall ()

let mib n = float_of_int n /. float_of_int Size.mib

let words_mib w = float_of_int (w * (Sys.word_size / 8)) /. float_of_int Size.mib

(* Largest the major heap has been since the process started. *)
let peak_heap_mib () = words_mib (Stdlib.Gc.quick_stat ()).Stdlib.Gc.top_heap_words

(* What the simulation still holds after a full major collection: unlike
   the peak, it does not depend on when the collector happened to run. *)
let live_heap_mib () =
  Stdlib.Gc.full_major ();
  words_mib (Stdlib.Gc.stat ()).Stdlib.Gc.live_words

(* Wall seconds spent in [f]. *)
let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

(* The reference: fixed integer work with no allocation and no simulator
   code, pseudo-random updates in a 512 KiB table. Timed right after every
   cycle, it tracks how fast the host runs at that moment. On the shared
   2-core host the baseline was measured on, speed drifts by up to 20%
   over minutes and moves every wall time with it; a cycle's wall time
   over the reference's is the simulator's cost in host-independent units.
   The table lives outside the OCaml heap, so the heap metrics do not see
   it. *)
let reference_table = Bigarray.(Array1.create int c_layout 65536)
let () = Bigarray.Array1.fill reference_table 0

let reference_wall () =
  let t0 = wall () in
  let x = ref 0x2545F491 in
  for i = 0 to 199_999 do
    let k = ((!x * 0x9E3779B1) lsr 7) land 65535 in
    x := (!x lxor Bigarray.Array1.get reference_table k) + i;
    Bigarray.Array1.set reference_table k !x
  done;
  ignore (Sys.opaque_identity !x);
  wall () -. t0

(* ------------------------------------------------------------------ *)
(* Counting event loop *)

let events = ref 0

(* [Cluster.run]'s loop (drive the engine until the benchmark fiber returns,
   not until the queue drains: guest OS loggers never stop), counting
   every event it executes. *)
let drive (cluster : Cluster.t) f =
  let result = ref None in
  ignore (Engine.Fiber.spawn cluster.Cluster.engine ~name:"bench" (fun () -> result := Some (f ())));
  while Option.is_none !result && Engine.step cluster.Cluster.engine do
    incr events
  done;
  match !result with Some r -> r | None -> failwith "benchmark fiber did not complete (deadlock?)"

(* ------------------------------------------------------------------ *)
(* Order statistics *)

(* Nearest-rank percentile: always one of the samples. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] (exclusive
   method) gives them, so the numbers here match any script's. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* ------------------------------------------------------------------ *)
(* Metrics, checks, outcomes *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* A correctness gate over [total] items (restored buffers, phase tilings,
   ...); every item that fails counts against [failed]. *)
type check = { check : string; passed : int; total : int; detail : string }

let check ?(detail = "") name ~passed ~total = { check = name; passed; total; detail }

type outcome = {
  workload : string;
  seed : int;
  traced : bool;
  ops : int;  (** global operations attempted in the measured phase *)
  ops_failed : int;
  metrics : metric list;
  checks : check list;
}

let attempted o = o.ops + List.fold_left (fun acc c -> acc + c.total) 0 o.checks
let failed o = o.ops_failed + List.fold_left (fun acc c -> acc + (c.total - c.passed)) 0 o.checks
let correct o = failed o = 0
let find o name = List.find_opt (fun m -> String.equal m.name name) o.metrics

let to_json o =
  Json.Obj
    [
      ("workload", Json.Str o.workload);
      ("seed", Json.Num (float_of_int o.seed));
      ("traced", Json.Bool o.traced);
      ("correct", Json.Bool (correct o));
      ("attempted", Json.Num (float_of_int (attempted o)));
      ("failed", Json.Num (float_of_int (failed o)));
      ("ops", Json.Num (float_of_int o.ops));
      ("ops_failed", Json.Num (float_of_int o.ops_failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Num m.value);
                     ("unit", Json.Str m.unit_);
                     ("samples", Json.Num (float_of_int m.samples));
                   ] ))
             o.metrics) );
      ( "checks",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("name", Json.Str c.check);
                   ("passed", Json.Num (float_of_int c.passed));
                   ("total", Json.Num (float_of_int c.total));
                   ("detail", Json.Str c.detail);
                 ])
             o.checks) );
    ]

let of_json j =
  let open Json in
  {
    workload = to_str (get "workload" j);
    seed = to_int (get "seed" j);
    traced = to_bool (get "traced" j);
    ops = to_int (get "ops" j);
    ops_failed = to_int (get "ops_failed" j);
    metrics =
      List.map
        (fun (name, m) ->
          {
            name;
            unit_ = to_str (get "unit" m);
            value = to_float (get "value" m);
            samples = to_int (get "samples" m);
          })
        (to_assoc (get "metrics" j));
    checks =
      List.map
        (fun c ->
          {
            check = to_str (get "name" c);
            passed = to_int (get "passed" c);
            total = to_int (get "total" c);
            detail = to_str (get "detail" c);
          })
        (to_list (get "checks" j));
  }

(* ------------------------------------------------------------------ *)
(* Layer counters *)

(* One reading of every public counter the layers expose. Deltas between
   two readings are the per-layer metrics of the untraced run. *)
type layers = {
  l_events : int;
  l_hashed : int;
  l_minor_words : float;
  l_major_gcs : int;
  l_sent : int;
  l_disk_written : int;
  l_disk_read : int;
  l_busy : float array;
  l_repo : int;
  l_digest : Blobseer.Client.digest_stats;
  l_pf_distinct : int;
  l_pf_coalesced : int;
  l_commit : Blobseer.Client.write_stats;
  l_cow : int;
}

let read_layers (cluster : Cluster.t) ~mirrors =
  let gc = Stdlib.Gc.quick_stat () in
  let disks = Array.map (fun (n : Cluster.node) -> n.Cluster.disk) cluster.Cluster.nodes in
  let sum f = Array.fold_left (fun acc d -> acc + f d) 0 disks in
  {
    l_events = !events;
    l_hashed = Payload.hashed_bytes ();
    l_minor_words = gc.Stdlib.Gc.minor_words;
    l_major_gcs = gc.Stdlib.Gc.major_collections;
    l_sent =
      List.fold_left (fun acc h -> acc + Netsim.Net.bytes_sent h) 0 (Netsim.Net.hosts cluster.Cluster.net);
    l_disk_written = sum Storage.Disk.bytes_written;
    l_disk_read = sum Storage.Disk.bytes_read;
    l_busy = Array.map Storage.Disk.busy_time disks;
    l_repo = Blobseer.Client.repository_bytes cluster.Cluster.service;
    l_digest = Blobseer.Client.digest_stats cluster.Cluster.service;
    l_pf_distinct = Vdisk.Prefetch.distinct_fetches cluster.Cluster.prefetch;
    l_pf_coalesced = Vdisk.Prefetch.coalesced_fetches cluster.Cluster.prefetch;
    l_commit =
      List.fold_left
        (fun acc m -> Blobseer.Client.add_write_stats acc (Vdisk.Mirror.total_commit_stats m))
        Blobseer.Client.empty_write_stats mirrors;
    l_cow = List.fold_left (fun acc m -> acc + Vdisk.Mirror.cow_bytes m) 0 mirrors;
  }

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* [wall] is the wall time the cycles between the two readings took. *)
let layer_metrics ~wall ~before:b ~after:a =
  let open Blobseer.Client in
  let events = a.l_events - b.l_events in
  let busy = Array.mapi (fun i x -> x -. b.l_busy.(i)) a.l_busy in
  let digested = a.l_digest.bytes_digested - b.l_digest.bytes_digested in
  let cached = a.l_digest.bytes_cached - b.l_digest.bytes_cached in
  let distinct = a.l_pf_distinct - b.l_pf_distinct in
  let coalesced = a.l_pf_coalesced - b.l_pf_coalesced in
  [
    metric "simcore.events" "count" (float_of_int events);
    metric "simcore.ns_per_event" "ns" (wall *. 1e9 /. float_of_int (max 1 events));
    metric "simcore.hashed_mib" "MiB" (mib (a.l_hashed - b.l_hashed));
    metric "runtime.minor_mwords" "Mwords" ((a.l_minor_words -. b.l_minor_words) /. 1e6);
    metric "runtime.major_gcs" "count" (float_of_int (a.l_major_gcs - b.l_major_gcs));
    metric "netsim.sent_mib" "MiB" (mib (a.l_sent - b.l_sent));
    metric "storage.write_mib" "MiB" (mib (a.l_disk_written - b.l_disk_written));
    metric "storage.read_mib" "MiB" (mib (a.l_disk_read - b.l_disk_read));
    metric "storage.busy_s" "sim_s" (Array.fold_left ( +. ) 0.0 busy);
    metric "storage.busy_max_s" "sim_s" (Array.fold_left Float.max 0.0 busy);
    metric "blobseer.repo_mib" "MiB" (mib (a.l_repo - b.l_repo));
    metric "blobseer.digest_mib" "MiB" (mib digested);
    metric "blobseer.digest_cached_frac" "ratio" (frac cached (digested + cached));
    metric "vdisk.chunks_shipped" "count"
      (float_of_int (a.l_commit.chunks_shipped - b.l_commit.chunks_shipped));
    metric "vdisk.shipped_mib" "MiB" (mib (a.l_commit.bytes_shipped - b.l_commit.bytes_shipped));
    metric "vdisk.chunks_deduped" "count"
      (float_of_int (a.l_commit.chunks_deduped - b.l_commit.chunks_deduped));
    metric "vdisk.chunks_suppressed" "count"
      (float_of_int (a.l_commit.chunks_suppressed - b.l_commit.chunks_suppressed));
    metric "vdisk.cow_mib" "MiB" (mib (a.l_cow - b.l_cow));
    metric "vdisk.prefetch_coalesced_frac" "ratio" (frac coalesced (distinct + coalesced));
  ]

(* ------------------------------------------------------------------ *)
(* Traced-run phases *)

(* Self time of every span in the subtree under [root]: its duration minus
   the part of it its children cover. Summed over a subtree it equals the
   root's duration, which is what makes the phases tile. *)
let self_times (spans : Obs.Record.span list) (root : Obs.Record.span) =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Record.span) ->
      match s.Obs.Record.parent with
      | Some p -> Hashtbl.replace children p (s :: Option.value ~default:[] (Hashtbl.find_opt children p))
      | None -> ())
    spans;
  let kids (s : Obs.Record.span) = Option.value ~default:[] (Hashtbl.find_opt children s.Obs.Record.id) in
  let covered (s : Obs.Record.span) =
    let iv =
      List.sort
        (fun (a, _) (b, _) -> Float.compare a b)
        (List.map
           (fun (c : Obs.Record.span) -> (c.Obs.Record.start_time, c.start_time +. c.duration))
           (kids s))
    in
    fst
      (List.fold_left
         (fun (acc, hi) (lo, e) ->
           let lo = Float.max lo hi in
           if e > lo then (acc +. (e -. lo), e) else (acc, hi))
         (0.0, Float.neg_infinity) iv)
  in
  let rec walk acc (s : Obs.Record.span) =
    let acc = (s.Obs.Record.name, s.duration -. covered s) :: acc in
    List.fold_left walk acc (kids s)
  in
  walk [] root

(* The critical path of one global operation: of the root spans named
   [root] that opened inside the operation's simulated window [t0, t1),
   the one that finished last. The next operation may open at [t1]. *)
let critical_root spans ~root ~t0 ~t1 =
  List.fold_left
    (fun best (s : Obs.Record.span) ->
      if String.equal s.Obs.Record.name root && Option.is_none s.parent && s.start_time >= t0
         && s.start_time < t1
      then
        match best with
        | Some (b : Obs.Record.span) when b.start_time +. b.duration >= s.start_time +. s.duration ->
            best
        | _ -> Some s
      else best)
    None spans

let obs_metric (run : Obs.Record.run) ~component ~name =
  List.find_opt
    (fun (m : Obs.Record.metric) ->
      String.equal m.Obs.Record.m_component component && String.equal m.m_name name)
    run.Obs.Record.metrics
