package org.apache.spark

/** Waits until every event posted so far has reached the registered
  * listeners. Listener delivery is asynchronous, so counters read right
  * after a job would otherwise miss its last tasks. Lives in this package
  * because the listener bus is package-private.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
