open Simcore
open Netsim

type provider = { mhost : Net.host; server : Rate_server.t; mutable malive : bool }

type t = {
  engine : Engine.t;
  net : Net.t;
  providers : provider array;
  mutable cursor : int;
  journal : int Journal.t; (* intent = node count of an in-flight commit *)
  mutable armed_crash : bool;
  mutable recovered : int;
}

(* Wire size of one tree node and its service cost at a provider. *)
let node_bytes = 64
let node_cost = 5e-5

let create engine net ~hosts =
  if hosts = [] then invalid_arg "Metadata_service.create: no hosts";
  let mk mhost =
    {
      mhost;
      server = Rate_server.create engine ~rate:1e12 ~per_op:node_cost ();
      malive = true;
    }
  in
  {
    engine;
    net;
    providers = Array.of_list (List.map mk hosts);
    cursor = 0;
    journal = Journal.create ~name:"metadata" ();
    armed_crash = false;
    recovered = 0;
  }

let provider_count t = Array.length t.providers

let fail t i =
  if i < 0 || i >= Array.length t.providers then invalid_arg "Metadata_service.fail";
  t.providers.(i).malive <- false

let alive_count t =
  Array.fold_left (fun acc p -> if p.malive then acc + 1 else acc) 0 t.providers

(* Spread [n] nodes over the live providers starting at the rotating cursor,
   so successive small commits do not all hit provider 0. Each provider's
   batch is shipped and served in parallel; per-node cost is charged through
   the provider's serial service queue. A replicated segment-tree node set
   survives individual provider failures, so batches simply route around
   dead providers; with no live provider at all the service is down. *)
let spread t n =
  let live = Array.to_list t.providers |> List.filter (fun p -> p.malive) in
  let m = List.length live in
  if m = 0 then raise (Types.Provider_down "metadata service: no live provider");
  let live = Array.of_list live in
  let base = n / m and extra = n mod m in
  let start = t.cursor in
  t.cursor <- (t.cursor + 1) mod Array.length t.providers;
  List.filter_map
    (fun i ->
      let count = base + if i < extra then 1 else 0 in
      if count = 0 then None else Some (live.((start + i) mod m), count))
    (List.init m Fun.id)

let run_batches t ~client ~towards_provider batches =
  let task (provider, count) () =
    let bytes = count * node_bytes in
    if towards_provider then begin
      Net.transfer t.net ~src:client ~dst:provider.mhost bytes;
      Rate_server.process_many provider.server ~ops:count 0
    end
    else begin
      Rate_server.process_many provider.server ~ops:count 0;
      Net.transfer t.net ~src:provider.mhost ~dst:client bytes
    end
  in
  Engine.all t.engine ~name:"metadata.batch" (List.map task batches)

(* Node commits journal an intent first: a crash while the batches are in
   flight leaves a pending intent, and [recover_journal] rolls it back so
   the commit can be retried whole. *)
let commit_nodes t ~from n =
  if n < 0 then invalid_arg "Metadata_service.commit_nodes";
  if n > 0 then begin
    let jid = Journal.append t.journal n in
    if t.armed_crash then begin
      t.armed_crash <- false;
      raise (Types.Service_crashed "metadata service")
    end;
    match run_batches t ~client:from ~towards_provider:true (spread t n) with
    | () -> Journal.commit t.journal jid
    | exception e ->
        (* The service survived but the batch run failed client-visibly
           (e.g. no live metadata provider): abort our own intent so the
           journal stays quiescent; the client may retry the whole commit. *)
        Journal.abort t.journal jid;
        raise e
  end

let arm_crash t = t.armed_crash <- true

let recover_journal t =
  List.iter
    (fun (jid, _n) ->
      Journal.abort t.journal jid;
      t.recovered <- t.recovered + 1)
    (Journal.pending t.journal)

let journal_pending t = Journal.pending_count t.journal

(* Checked as part of the deployment's audit: every provider down is a
   site disaster nobody will ever recover, so its pending intents are
   legitimately stuck forever. *)
let audit t =
  let n = journal_pending t in
  if n <> 0 && alive_count t > 0 then
    [
      Engine.violation ~subject:"blobseer" "journal-quiescent"
        "metadata journal holds %d pending intent(s)" n;
    ]
  else []
let recovered_intents t = t.recovered

let fetch_nodes t ~to_ n =
  if n < 0 then invalid_arg "Metadata_service.fetch_nodes";
  if n > 0 then run_batches t ~client:to_ ~towards_provider:false (spread t n)
