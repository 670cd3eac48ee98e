(** A curated library of classic numerical kernels in the mini-Fortran
    language, with their known dependence structure. These complement
    the statistical generators: each kernel is a real algorithm whose
    parallel and serial loops are textbook facts, used as integration
    tests and demo inputs. *)

type kernel = {
  name : string;
  description : string;
  source : string;
  doall_loops : string list;
      (** loop variables (outermost occurrence order) that carry no
          dependence *)
  serial_loops : string list;  (** loops that do carry a dependence *)
}

val all : kernel list
val find : string -> kernel option
