(* The host's speed at the moment, measured with a fixed reference kernel
   that shares no code with the simulator: hashtable lookups, array
   sweeps and an md5 over tables built once, so the kernel allocates
   nothing and the heap a workload leaves behind cannot slow it down.

   Shared hosts change speed by half again for minutes at a time (another
   tenant on the sibling hyperthread), which moves every wall time
   together. Host times are therefore also reported scaled to the speed
   at which the kernel takes [reference_s]: a measurement's wall time
   times [reference_s] over the kernel's mean time just before and just
   after it. Consecutive measurements share the sample between them. *)

let reference_s = 0.015

let tables =
  lazy
    (let rng = Random.State.make [| 42 |] in
     let h = Hashtbl.create 16384 in
     let keys = Array.init 16_384 (fun _ -> Random.State.int rng 1_000_000) in
     Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
     (h, keys, Array.make 65_536 1, String.make 262_144 'x'))

let kernel () =
  let h, keys, a, s = Lazy.force tables in
  let acc = ref 0 in
  for r = 1 to 16 do
    Array.iter (fun k -> acc := !acc + Hashtbl.find h k) keys;
    for i = 0 to Array.length a - 1 do
      a.(i) <- (a.(i) * r) lxor !acc;
      acc := !acc + (a.(i) land 7)
    done
  done;
  for _ = 1 to 4 do
    acc := !acc + Char.code (Digest.string s).[0]
  done;
  Sys.opaque_identity !acc

let samples = ref []

(* Time the kernel once, keeping the sample. An untimed run first brings
   its tables back into the caches, so the sample does not depend on how
   much memory the measurement before it swept. *)
let sample () =
  ignore (kernel () : int);
  let t0 = Layer.now_ns () in
  ignore (kernel () : int);
  let s = float_of_int (Layer.now_ns () - t0) /. 1e9 in
  samples := s :: !samples;
  s

(* The latest sample, taking the first one (after building the tables)
   when there is none yet. *)
let last () =
  match !samples with
  | s :: _ -> s
  | [] ->
      ignore (Lazy.force tables);
      sample ()

let scale ~before ~after wall_s = wall_s *. reference_s /. ((before +. after) /. 2.0)
