(* One benchmark run: pick the workload, drive it, and collect what it
   reports together with the run's provenance. *)

type options = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Common.size;
  profile : string;  (** runall's Config profile: quick or full. *)
  expect_md5 : string option;  (** Overrides runall's committed baseline. *)
  trace_out : string option;  (** Where the traced run writes its Chrome trace. *)
  provenance : (string * string) list;  (** Commit, source digest, ... *)
}

let workloads = [ "runall"; "fleet-open"; "bigheap-read" ]

let host_cores () = string_of_int (Domain.recommended_domain_count ())

let meta o =
  [
    ("workload", o.workload);
    ("seed", string_of_int o.seed);
    ("profile", (match o.size with Common.Tiny -> "tiny" | Common.Normal -> o.profile));
    ("trace", string_of_bool o.trace);
    ("host_cores", host_cores ());
    ("ocaml", Sys.ocaml_version);
  ]
  @ o.provenance

let run o =
  let out = Out.create o.workload in
  let drive w =
    Workload.run w out ~seed:o.seed ~size:o.size ~seconds:o.seconds ~trace:o.trace
      ~trace_out:o.trace_out
  in
  (match o.workload with
  | "runall" ->
      drive
        (Runall.workload ~seed:o.seed ~size:o.size ~profile:o.profile ~expect_md5:o.expect_md5)
  | "fleet-open" -> drive (Fleet.workload ~seed:o.seed ~size:o.size)
  | "bigheap-read" -> drive (Bigheap.workload ~seed:o.seed ~size:o.size)
  | w -> invalid_arg ("unknown workload " ^ w));
  out
