(* The loops are unrolled four ways: with no barrier call left in the
   body, loop overhead is most of what remains, and unrolling halves the
   per-word cost again on a copy. [int array] in the signatures is what
   makes the stores plain — the compiler knows no pointer is written. *)

let blit (src : int array) src_pos (dst : int array) dst_pos len =
  if
    len < 0 || src_pos < 0
    || src_pos > Array.length src - len
    || dst_pos < 0
    || dst_pos > Array.length dst - len
  then invalid_arg "Words.blit";
  let d = dst_pos - src_pos in
  if src == dst && d > 0 then
    (* Overlapping move towards higher indices: copy from the top down so
       no source word is overwritten before it is read. *)
    for i = src_pos + len - 1 downto src_pos do
      Array.unsafe_set dst (i + d) (Array.unsafe_get src i)
    done
  else begin
    let stop = src_pos + len in
    let i = ref src_pos in
    while !i + 4 <= stop do
      let j = !i in
      let w0 = Array.unsafe_get src j
      and w1 = Array.unsafe_get src (j + 1)
      and w2 = Array.unsafe_get src (j + 2)
      and w3 = Array.unsafe_get src (j + 3) in
      Array.unsafe_set dst (j + d) w0;
      Array.unsafe_set dst (j + d + 1) w1;
      Array.unsafe_set dst (j + d + 2) w2;
      Array.unsafe_set dst (j + d + 3) w3;
      i := j + 4
    done;
    for j = !i to stop - 1 do
      Array.unsafe_set dst (j + d) (Array.unsafe_get src j)
    done
  end

let fill (a : int array) pos len (v : int) =
  if pos < 0 || len < 0 || pos > Array.length a - len then invalid_arg "Words.fill";
  let stop = pos + len in
  let i = ref pos in
  while !i + 4 <= stop do
    let j = !i in
    Array.unsafe_set a j v;
    Array.unsafe_set a (j + 1) v;
    Array.unsafe_set a (j + 2) v;
    Array.unsafe_set a (j + 3) v;
    i := j + 4
  done;
  for j = !i to stop - 1 do
    Array.unsafe_set a j v
  done
