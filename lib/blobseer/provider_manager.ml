open Simcore
open Netsim
open Storage

type t = {
  net : Net.t;
  host : Net.host;
  server : Rate_server.t;
  dedup : Dedup_index.t;
  mutable provider_list : Data_provider.t list; (* newest first *)
  mutable table : Data_provider.t array;
  mutable cursor : int;
  mutable degraded_allocs : int;
}

let create engine net ~host ~allocate_cost =
  {
    net;
    host;
    server = Rate_server.create engine ~rate:1e12 ~per_op:allocate_cost ();
    dedup = Dedup_index.create engine;
    provider_list = [];
    table = [||];
    cursor = 0;
    degraded_allocs = 0;
  }

let register t provider =
  t.provider_list <- provider :: t.provider_list;
  t.table <- Array.of_list (List.rev t.provider_list)

let providers t = t.table
let provider t i = t.table.(i)
let dedup_index t = t.dedup

let host_of t i = Net.host_id (Data_provider.host t.table.(i))

(* Number of distinct hosts backed by at least one live provider — the real
   fault-isolation bound for replica placement. Counting live *providers*
   here was the original bug: two providers on one host count as one failure
   domain, and a crash of that host must not be able to take every copy. *)
let live_distinct_hosts t =
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i p -> if Data_provider.is_alive p then Hashtbl.replace seen (host_of t i) ())
    t.table;
  Hashtbl.length seen

(* One bounded sweep of the table per chunk: round-robin from the cursor,
   skipping dead providers and hosts already holding a copy. Since
   [want <= hosts], a full sweep always finds [want] distinct hosts. *)
let placement_for_chunk t ~replication =
  let n = Array.length t.table in
  let hosts = live_distinct_hosts t in
  if hosts = 0 then raise (Types.Provider_down "no live provider");
  let want = min replication hosts in
  let rec pick acc used k inspected =
    if k = 0 || inspected >= n then List.rev acc
    else begin
      let i = t.cursor in
      t.cursor <- (t.cursor + 1) mod n;
      let h = host_of t i in
      if Data_provider.is_alive t.table.(i) && not (List.mem h used) then
        pick (i :: acc) (h :: used) (k - 1) (inspected + 1)
      else pick acc used k (inspected + 1)
    end
  in
  let placement = pick [] [] want 0 in
  if placement = [] then raise (Types.Provider_down "no live provider");
  if List.length placement < replication then t.degraded_allocs <- t.degraded_allocs + 1;
  placement

let allocate t ~from ~count ~replication () =
  if count < 0 || replication < 1 then invalid_arg "Provider_manager.allocate";
  Net.message t.net ~src:from ~dst:t.host;
  Rate_server.process_many t.server ~ops:count 0;
  let placements =
    List.init count (fun _ -> placement_for_chunk t ~replication)
  in
  Net.message t.net ~src:t.host ~dst:from;
  placements

(* A replica the index may hand out as a dedup hit must be exactly what
   the original writer stored: live provider, chunk present, and the
   stored bytes verify against the digest being resolved — otherwise a
   silently corrupted or lost copy would propagate into fresh versions.
   Verification is provider-local (no simulated network) and O(1) per
   long-lived chunk thanks to payload digest memoization. *)
let replica_valid t ~digest (r : Types.replica) =
  r.provider >= 0
  && r.provider < Array.length t.table
  &&
  let p = t.table.(r.provider) in
  Data_provider.is_alive p
  && Content_store.mem (Data_provider.store p) r.chunk
  && Content_store.recorded_digest (Data_provider.store p) r.chunk = digest
  && Data_provider.verify_chunk p r.chunk

type chunk_alloc =
  | Dedup of Types.replica list
  | Fresh of int list

let resolve_or_allocate t ~from ~digest ~size ~replication () =
  if replication < 1 then invalid_arg "Provider_manager.resolve_or_allocate";
  Net.message t.net ~src:from ~dst:t.host;
  Rate_server.process t.server 0;
  let validate replicas =
    replicas <> [] && List.for_all (replica_valid t ~digest) replicas
  in
  let outcome =
    match Dedup_index.resolve t.dedup ~digest ~size ~validate with
    | Dedup_index.Hit replicas -> Dedup replicas
    | Dedup_index.Claimed -> (
        (* A failed placement must release the in-flight claim, or every
           concurrent writer of the same content deadlocks on it. *)
        try Fresh (placement_for_chunk t ~replication)
        with e ->
          Dedup_index.abandon t.dedup ~digest;
          raise e)
  in
  Net.message t.net ~src:t.host ~dst:from;
  outcome

type batch_alloc =
  | Batch_dedup of Types.replica list
  | Batch_fresh of int list
  | Batch_busy

let resolve_many t ~from ~chunks ~replication () =
  if replication < 1 then invalid_arg "Provider_manager.resolve_many";
  match chunks with
  | [] -> []
  | _ ->
      Net.message t.net ~src:from ~dst:t.host;
      Rate_server.process_many t.server ~ops:(List.length chunks) 0;
      let claimed = ref [] in
      let outcomes =
        try
          List.map
            (fun (digest, size) ->
              let validate replicas =
                replicas <> [] && List.for_all (replica_valid t ~digest) replicas
              in
              match Dedup_index.resolve_nowait t.dedup ~digest ~size ~validate with
              | Dedup_index.Now_hit replicas -> Batch_dedup replicas
              | Dedup_index.Now_busy -> Batch_busy
              | Dedup_index.Now_claimed ->
                  claimed := digest :: !claimed;
                  Batch_fresh (placement_for_chunk t ~replication))
            chunks
        with e ->
          (* A failed placement mid-batch must release every claim the batch
             already took, or concurrent writers of those digests deadlock. *)
          List.iter (fun digest -> Dedup_index.abandon t.dedup ~digest) !claimed;
          raise e
      in
      Net.message t.net ~src:t.host ~dst:from;
      outcomes

(* Registration and abandonment piggyback on the write path's data-plane
   acknowledgements, so they carry no separate simulated cost. *)
let commit_dedup t ~digest ~size ~replicas = Dedup_index.publish t.dedup ~digest ~size ~replicas
let abandon_dedup t ~digest = Dedup_index.abandon t.dedup ~digest

let degraded_allocations t = t.degraded_allocs
