type status = Pending | Committed | Aborted

type 'a entry = { id : int; intent : 'a; mutable status : status }

type 'a t = {
  jname : string;
  mutable entries_rev : 'a entry list; (* newest first *)
  mutable next_id : int;
}

let create ~name () = { jname = name; entries_rev = []; next_id = 0 }

let append t intent =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  t.entries_rev <- { id; intent; status = Pending } :: t.entries_rev;
  id

let find t id =
  match List.find_opt (fun e -> e.id = id) t.entries_rev with
  | Some e -> e
  | None -> invalid_arg (t.jname ^ ": unknown journal entry")

let commit t id =
  let e = find t id in
  if e.status <> Pending then invalid_arg (t.jname ^ ": entry already resolved");
  e.status <- Committed

let abort t id =
  let e = find t id in
  if e.status <> Pending then invalid_arg (t.jname ^ ": entry already resolved");
  e.status <- Aborted

let pending t =
  List.filter_map
    (fun e -> if e.status = Pending then Some (e.id, e.intent) else None)
    (List.rev t.entries_rev)

let pending_count t = List.length (pending t)
