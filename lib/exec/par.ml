(* Kept only because the frozen benchmark suite calls [Exec.Par.set_jobs 1];
   remove it in the next benchmark change. Every run is sequential. *)
let set_jobs j =
  if j <> 1 then invalid_arg "Exec.Par.set_jobs: only 1 (sequential) is supported"
