package repro.core

/** Driver-side data parallelism: the library's one way to spread work over
  * the cores.
  */
private[repro] object Tasks {

  /** Runs `body` on each task `0 until tasks`: on the common fork-join pool
    * if `parallel`, else (and for a single task) on the calling thread.
    */
  def inTasks(tasks: Int, parallel: Boolean)(body: Int => Unit): Unit =
    if (parallel && tasks > 1) java.util.stream.IntStream.range(0, tasks).parallel().forEach(t => body(t))
    else { var t = 0; while (t < tasks) { body(t); t += 1 } }
}
