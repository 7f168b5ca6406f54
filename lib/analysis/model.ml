let cpr_checkpoint_penalty ~t ~n ~tc ~ts = 1.0 /. t *. float_of_int n *. (tc +. ts)

let gprs_checkpoint_penalty ~t ~n ~ts = 1.0 /. t *. float_of_int n *. ts

let restart_delay ~t ~tw = t +. tw

let cpr_restart_penalty ~n ~e ~tr = float_of_int n *. e *. tr
let gprs_restart_penalty ~e ~tr = e *. tr

let gprs_ordering_penalty ~t ~n ~tg = 1.0 /. t *. float_of_int n *. tg

let cpr_max_rate ~tr = 1.0 /. tr

let hw_max_rate ~n ~nc ~tr = float_of_int n /. float_of_int nc /. tr

let gprs_max_rate ~n ~tr = float_of_int n /. tr

type related_work_row = {
  proposal : string;
  recovery : string;
  design : string;
  chkpt_cost : string;
  rec_cost : string;
  scalable : string;
  deterministic : string;
  det_cost : string;
}

let table1 =
  [
    {
      proposal = "Rebound, ReViveI/O, ReVive, SafetyNet";
      recovery = "Yes";
      design = "Hardware";
      chkpt_cost = "High";
      rec_cost = "High";
      scalable = "No";
      deterministic = "No";
      det_cost = "N/A";
    };
    {
      proposal = "Bronevetsky et al., C3, BLCR, DMTCP-style";
      recovery = "User code";
      design = "Software";
      chkpt_cost = "High";
      rec_cost = "High";
      scalable = "No";
      deterministic = "No";
      det_cost = "N/A";
    };
    {
      proposal = "DMP, RCDC, Calvin";
      recovery = "No";
      design = "Hardware";
      chkpt_cost = "N/A";
      rec_cost = "N/A";
      scalable = "N/A";
      deterministic = "Yes";
      det_cost = "High";
    };
    {
      proposal = "dOS, CoreDet, Grace, DTHREADS, Kendo";
      recovery = "No";
      design = "Software";
      chkpt_cost = "N/A";
      rec_cost = "N/A";
      scalable = "N/A";
      deterministic = "Yes";
      det_cost = "High";
    };
    {
      proposal = "GPRS (this work)";
      recovery = "Full program";
      design = "Software";
      chkpt_cost = "Low";
      rec_cost = "Low";
      scalable = "Yes";
      deterministic = "Yes";
      det_cost = "Low";
    };
  ]
