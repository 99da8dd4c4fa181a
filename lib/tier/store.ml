(** Write modes of a tiered store, taken by {!Fleet.attach}. *)

type mode =
  | Write_through
      (** non-journaled writes hit the disk before returning; the RAM
          cache and the remote nodes only ever hold clean copies *)
  | Write_back
      (** non-journaled writes land in the RAM cache and return
          immediately; dirty pages reach the remote nodes or the disk
          on eviction. Journaled commits still write through, so the
          crash-consistency story is mode-independent. *)
