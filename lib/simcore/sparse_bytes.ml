(* [blocks.(i)] is block [i]'s content, exactly [block_size] bytes, or
   [absent] when it was never written. [absent] is private to this module:
   reads of an absent block return a fresh zero payload, never [absent]
   itself, so a block read back and written again always counts as
   materialized. *)
type t = {
  block_size : int;
  mutable blocks : Payload.t array;
  mutable materialized : int; (* blocks that are not [absent] *)
}

let absent = Payload.zero 1

let create ?(block_size = 64 * 1024) () =
  if block_size <= 0 then invalid_arg "Sparse_bytes.create";
  { block_size; blocks = [||]; materialized = 0 }

let block_content t index =
  if index < Array.length t.blocks && t.blocks.(index) != absent then t.blocks.(index)
  else Payload.zero t.block_size

(* Grow by doubling so that [index] is addressable. *)
let reserve t index =
  let n = Array.length t.blocks in
  if index >= n then begin
    let blocks = Array.make (max (index + 1) (2 * n)) absent in
    Array.blit t.blocks 0 blocks 0 n;
    t.blocks <- blocks
  end

let set_block t index content =
  reserve t index;
  if t.blocks.(index) == absent then t.materialized <- t.materialized + 1;
  t.blocks.(index) <- content

let write t ~offset payload =
  if offset < 0 then invalid_arg "Sparse_bytes.write";
  let len = Payload.length payload in
  if len > 0 then begin
    let bs = t.block_size in
    let first = offset / bs and last = (offset + len - 1) / bs in
    for index = first to last do
      let bstart = index * bs in
      let wstart = max bstart offset and wend = min (bstart + bs) (offset + len) in
      let content =
        if wstart = bstart && wend = bstart + bs then
          Payload.sub payload ~pos:(bstart - offset) ~len:bs
        else
          Payload.splice (block_content t index) ~pos:(wstart - bstart)
            (Payload.sub payload ~pos:(wstart - offset) ~len:(wend - wstart))
      in
      set_block t index content
    done
  end

let read t ~offset ~len =
  if offset < 0 || len < 0 then invalid_arg "Sparse_bytes.read";
  if len = 0 then Payload.zero 0
  else begin
    let bs = t.block_size in
    let first = offset / bs and last = (offset + len - 1) / bs in
    let whole =
      if first = last then block_content t first
      else Payload.concat (List.init (last - first + 1) (fun k -> block_content t (first + k)))
    in
    Payload.sub whole ~pos:(offset - (first * bs)) ~len
  end

let written_bytes t = t.materialized * t.block_size

let clear t =
  t.blocks <- [||];
  t.materialized <- 0
